package service

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"dexpander/internal/graph"
	"dexpander/internal/obs"
	"dexpander/internal/triangle"
)

// This file is the service side of the distributed 2D triangle count:
// the replica-side content-addressed fragment cache plus count endpoint
// state, and the coordinator that fans a tiling's block triples across
// the configured peer fleet. The protocol (fragment wire format, cache
// keys, scheduling, failure handling) is documented in README.md.
//
// Correctness contract: the coordinator reduces per-triple counts in
// task order, and every triple is counted exactly once — by a replica
// via triangle.CountFragments or locally via DistPlan.CountTriple, both
// of which run the 2D kernel's one task body. The total is
// therefore bit-identical to triangle.CountParallel2D for every peer
// count, window size, and failure pattern.

// fragKey content-addresses one resident CSR fragment: the snapshot
// fingerprint names the graph, the tiling dimension names the block
// decomposition (cuts are deterministic in (graph, p)), and [lo, hi) is
// the block's rank range. A replica stores each key at most once per
// residency — re-pushing an already resident key is a no-op.
type fragKey struct {
	fingerprint string // snapshot id, "fnv64:" + 16 hex
	p           int    // tiling dimension
	lo, hi      int32  // block rank range
}

// fragEntry is one resident fragment. Fragments are immutable after
// insertion, so DistCountTriple may read frag outside s.mu once looked
// up — eviction only unlinks the entry, it never mutates the arrays.
type fragEntry struct {
	frag     *triangle.Fragment
	bytes    int64
	lastUsed uint64
}

// StoreFragment decodes, validates, and admits one encoded fragment
// under (snapshot, p, [lo, hi)). Storing an already resident key is an
// idempotent no-op (returns stored == false); admitting a fresh key
// evicts least-recently-used fragments until the cache fits
// MaxFragmentBytes again. The declared range must match the fragment's
// own header — a coordinator cannot alias one block's bytes under
// another block's key — and its universe must stay within
// checkRankSpace's cap.
func (s *Service) StoreFragment(snapID string, p int, lo, hi int32, data []byte) (bool, error) {
	if p < 1 {
		return false, fmt.Errorf("service: fragment tiling dimension %d out of range", p)
	}
	size := int64(len(data))
	if size > s.cfg.MaxFragmentBytes {
		return false, fmt.Errorf("service: fragment of %d bytes exceeds cache bound %d",
			size, s.cfg.MaxFragmentBytes)
	}
	f, err := triangle.DecodeFragment(data)
	if err != nil {
		return false, err
	}
	if err := checkRankSpace(f.Ranks); err != nil {
		return false, err
	}
	if f.Lo != lo || f.Hi != hi {
		return false, fmt.Errorf("service: fragment covers [%d, %d), stored under [%d, %d)",
			f.Lo, f.Hi, lo, hi)
	}
	key := fragKey{fingerprint: snapID, p: p, lo: lo, hi: hi}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false, ErrClosed
	}
	s.fragTick++
	if e, ok := s.frags[key]; ok {
		e.lastUsed = s.fragTick
		return false, nil
	}
	for s.fragBytes+size > s.cfg.MaxFragmentBytes && len(s.frags) > 0 {
		s.evictFragmentLocked()
	}
	s.frags[key] = &fragEntry{frag: f, bytes: size, lastUsed: s.fragTick}
	s.fragBytes += size
	s.stats.FragmentStores++
	s.stats.FragmentBytes = s.fragBytes
	return true, nil
}

// evictFragmentLocked drops the least-recently-used fragment
// (deterministic tie-break by key order).
func (s *Service) evictFragmentLocked() {
	var victimKey fragKey
	var victim *fragEntry
	for k, e := range s.frags {
		if victim == nil || e.lastUsed < victim.lastUsed ||
			(e.lastUsed == victim.lastUsed && lessFragKey(k, victimKey)) {
			victimKey, victim = k, e
		}
	}
	if victim != nil {
		delete(s.frags, victimKey)
		s.fragBytes -= victim.bytes
		s.stats.FragmentEvictions++
		s.stats.FragmentBytes = s.fragBytes
	}
}

func lessFragKey(a, b fragKey) bool {
	if a.fingerprint != b.fingerprint {
		return a.fingerprint < b.fingerprint
	}
	if a.p != b.p {
		return a.p < b.p
	}
	if a.lo != b.lo {
		return a.lo < b.lo
	}
	return a.hi < b.hi
}

// checkRankSpace rejects a rank universe larger than uploads may build
// (uploadLimits.MaxVertices): a replica sizes its stamp scratch by the
// universe, so an unchecked header would let a tiny request demand
// gigabytes, and an out-of-memory failure kills the whole process. A
// coordinator whose own graph is larger still gets the right total —
// its replicas refuse the triples, and they fall back to its local
// count.
func checkRankSpace(ranks int) error {
	if ranks > uploadLimits.MaxVertices {
		return fmt.Errorf("service: rank space %d exceeds the %d-vertex cap", ranks, uploadLimits.MaxVertices)
	}
	return nil
}

// DistCountTriple executes one block triple against resident fragments:
// the replica half of the distributed count. Both row-block fragments
// must already be resident under (snapID, tl.P, block range) — a miss
// returns ErrFragmentMissing naming the absent block so the coordinator
// re-pushes and retries. Each resident lookup counts as one FragmentHit;
// together with FragmentStores this proves each key is transferred at
// most once per replica while resident.
func (s *Service) DistCountTriple(snapID string, tl triangle.Tiling, t triangle.BlockTriple) (int, error) {
	if err := checkRankSpace(tl.Ranks); err != nil {
		return 0, err
	}
	if err := tl.Validate(); err != nil {
		return 0, err
	}
	if t.I < 0 || t.I > t.J || t.J > t.K || t.K >= tl.P {
		return 0, fmt.Errorf("service: block triple (%d,%d,%d) outside %d-grid", t.I, t.J, t.K, tl.P)
	}
	bi, bj := t.Blocks()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, ErrClosed
	}
	s.fragTick++
	lookup := func(b int) (*triangle.Fragment, error) {
		lo, hi := tl.Block(b)
		e, ok := s.frags[fragKey{fingerprint: snapID, p: tl.P, lo: lo, hi: hi}]
		if !ok {
			return nil, fmt.Errorf("%w: block %d = [%d, %d) of %s/%d",
				ErrFragmentMissing, b, lo, hi, snapID, tl.P)
		}
		e.lastUsed = s.fragTick
		s.stats.FragmentHits++
		return e.frag, nil
	}
	fi, err := lookup(bi)
	if err == nil && bj != bi {
		var fj *triangle.Fragment
		if fj, err = lookup(bj); err == nil {
			s.mu.Unlock()
			n, cerr := triangle.CountFragments(tl, t, fi, fj)
			s.bumpDistTriples(cerr)
			return n, cerr
		}
	}
	if err != nil {
		s.mu.Unlock()
		return 0, err
	}
	s.mu.Unlock()
	n, cerr := triangle.CountFragments(tl, t, fi, fi)
	s.bumpDistTriples(cerr)
	return n, cerr
}

func (s *Service) bumpDistTriples(err error) {
	if err != nil {
		return
	}
	s.mu.Lock()
	s.stats.DistTriples++
	s.mu.Unlock()
}

// distPeer is the coordinator's per-peer state for one job.
type distPeer struct {
	client *Client

	mu     sync.Mutex
	pushed map[int]bool // blocks confirmed resident on the peer this job
	dead   bool         // transport-level failure: stop sending it work
}

func (dp *distPeer) isDead() bool {
	dp.mu.Lock()
	defer dp.mu.Unlock()
	return dp.dead
}

func (dp *distPeer) markDead() {
	dp.mu.Lock()
	dp.dead = true
	dp.mu.Unlock()
}

// distJob is the coordinator's state for one distributed count.
type distJob struct {
	snapID string
	plan   *triangle.DistPlan
	peers  []*distPeer

	// svc is the owning coordinator, for per-peer stats and the tracer;
	// span is the job's "dist" span (nil when the request is untraced).
	svc  *Service
	span *obs.Span

	encMu sync.Mutex
	enc   map[int][]byte // block -> encoded fragment, rendered once per job
}

// peerFailed marks the peer dead for the rest of the job and accounts
// the failure to its per-peer stats section.
func (j *distJob) peerFailed(dp *distPeer) {
	dp.markDead()
	j.svc.recordDistPeer(dp.client.Base, func(ps *PeerDistStats) { ps.Failures++ })
}

// encoded returns block b's wire bytes, encoding at most once per job no
// matter how many peers need it.
func (j *distJob) encoded(b int) []byte {
	j.encMu.Lock()
	defer j.encMu.Unlock()
	if data, ok := j.enc[b]; ok {
		return data
	}
	data := j.plan.Fragment(b).Encode()
	j.enc[b] = data
	return data
}

// ensureFragment pushes block b to the peer unless this job already
// confirmed it resident there. The per-peer lock makes concurrent window
// workers agree on one push per (peer, block) — the at-most-once
// transfer the replica's StoreFragment counter then witnesses.
func (j *distJob) ensureFragment(ctx context.Context, dp *distPeer, b int) error {
	dp.mu.Lock()
	defer dp.mu.Unlock()
	if dp.dead {
		return fmt.Errorf("service: peer %s marked failed", dp.client.Base)
	}
	if dp.pushed[b] {
		return nil
	}
	lo, hi := j.plan.Tiling.Block(b)
	data := j.encoded(b)
	psp := j.span.Child("dist.push")
	psp.Attr("peer", dp.client.Base).AttrInt("block", b).AttrInt("bytes", len(data))
	err := dp.client.PutFragment(ctx, j.snapID, j.plan.Tiling.P, lo, hi, data)
	psp.End()
	if err != nil {
		return err
	}
	dp.pushed[b] = true
	j.svc.recordDistPeer(dp.client.Base, func(ps *PeerDistStats) {
		ps.Pushes++
		ps.PushBytes += int64(len(data))
	})
	return nil
}

// forget drops the job's residency knowledge of block b on the peer (the
// replica reported it missing — e.g. evicted between push and count).
func (dp *distPeer) forget(b int) {
	dp.mu.Lock()
	delete(dp.pushed, b)
	dp.mu.Unlock()
}

// countOn runs one triple on one peer: ensure its two row-block
// fragments are resident, then ask for the count. A fragment_missing
// answer re-pushes and retries once; a transport error marks the peer
// dead so queued work fails over immediately instead of timing out
// triple by triple.
func (j *distJob) countOn(ctx context.Context, dp *distPeer, t triangle.BlockTriple) (n int, err error) {
	csp := j.span.Child("dist.count")
	csp.Attr("peer", dp.client.Base)
	csp.AttrInt("bi", t.I).AttrInt("bj", t.J).AttrInt("bk", t.K)
	defer func() {
		if err != nil {
			csp.Attr("outcome", "error")
		} else {
			csp.AttrInt("count", n)
		}
		csp.End()
	}()
	bi, bj := t.Blocks()
	for attempt := 0; ; attempt++ {
		if err := j.ensureFragment(ctx, dp, bi); err != nil {
			j.peerFailed(dp)
			return 0, err
		}
		if bj != bi {
			if err := j.ensureFragment(ctx, dp, bj); err != nil {
				j.peerFailed(dp)
				return 0, err
			}
		}
		n, err := j.distCountRemote(ctx, dp, t, csp)
		if err == nil {
			j.svc.recordDistPeer(dp.client.Base, func(ps *PeerDistStats) { ps.Triples++ })
			return n, nil
		}
		if apiErr, ok := err.(*APIError); ok && apiErr.Code == CodeFragmentMissing && attempt == 0 {
			dp.forget(bi)
			dp.forget(bj)
			continue
		}
		if _, ok := err.(*APIError); !ok {
			// Transport-level failure (connection refused, reset, ctx
			// cancel): assume the peer is gone for the rest of the job.
			j.peerFailed(dp)
		}
		return 0, err
	}
}

// distCountRemote asks the peer for one triple's count. When the job is
// traced, the request carries the trace reference so the replica opens
// its own span and ships it back; the coordinator tags returned spans
// with the peer's base URL and merges them into the local ring — that
// merge is what makes one dist job a single cross-replica trace.
func (j *distJob) distCountRemote(ctx context.Context, dp *distPeer, t triangle.BlockTriple, csp *obs.Span) (int, error) {
	if csp == nil {
		return dp.client.DistCount(ctx, j.snapID, j.plan.Tiling, t)
	}
	n, spans, err := dp.client.DistCountTraced(ctx, j.snapID, j.plan.Tiling, t, csp.TraceID, csp.ID)
	if err != nil {
		return 0, err
	}
	if csp.Sampled() {
		for _, rs := range spans {
			if rs.Attrs == nil {
				rs.Attrs = make(map[string]string, 1)
			}
			rs.Attrs["peer"] = dp.client.Base
			j.svc.cfg.Tracer.Record(rs)
		}
	}
	return n, nil
}

// distCount is the coordinator: tile the view, schedule the block
// triples across the fleet by a deterministic volume-balanced (greedy
// LPT) assignment, run each peer's share through a bounded in-flight
// window, fail triples over to the other replicas, and count the last
// resort locally. Called from DistCountParams.run with len(peers) > 0.
func (s *Service) distCount(ctx context.Context, view *graph.Sub, fp uint64, grid int) (res *Result, err error) {
	start := time.Now()
	peers := s.cfg.Peers
	window := s.cfg.DistWindow
	p := grid
	if p == 0 {
		p = triangle.AutoGrid(len(peers)*window, len(view.MemberList()))
	}
	plan := triangle.NewDistPlan(view, p)
	triples := plan.Tiling.Triples()
	dsp := obs.SpanFromContext(ctx).Child("dist")
	dsp.AttrInt("grid", p).AttrInt("peers", len(peers)).AttrInt("triples", len(triples))
	defer func() {
		if err != nil {
			dsp.Attr("outcome", "error")
		} else {
			dsp.AttrInt("count", res.Triangles).AttrInt("retries", res.DistRetries)
		}
		dsp.End()
	}()

	// Deterministic volume-balanced schedule: triples in descending cost
	// order (ties by task order) onto the least-loaded peer (ties by peer
	// index). Deterministic in (snapshot, grid, peer list) alone.
	order := make([]int, len(triples))
	for i := range order {
		order[i] = i
	}
	costs := make([]int64, len(triples))
	for i, t := range triples {
		costs[i] = plan.TripleCost(t)
	}
	sort.SliceStable(order, func(a, b int) bool { return costs[order[a]] > costs[order[b]] })
	home := make([]int, len(triples))
	assign := make([][]int, len(peers))
	load := make([]int64, len(peers))
	for _, ti := range order {
		pick := 0
		for pi := 1; pi < len(peers); pi++ {
			if load[pi] < load[pick] {
				pick = pi
			}
		}
		home[ti] = pick
		assign[pick] = append(assign[pick], ti)
		load[pick] += costs[ti]
	}

	job := &distJob{
		snapID: snapshotID(fp),
		plan:   plan,
		peers:  make([]*distPeer, len(peers)),
		svc:    s,
		span:   dsp,
		enc:    make(map[int][]byte),
	}
	for pi, base := range peers {
		job.peers[pi] = &distPeer{
			client: &Client{Base: base},
			pushed: make(map[int]bool),
		}
	}

	counts := make([]int, len(triples))
	var mu sync.Mutex
	var failed []int
	served := make([]bool, len(peers))
	var wg sync.WaitGroup
	for pi := range peers {
		if len(assign[pi]) == 0 {
			continue
		}
		queue := make(chan int, len(assign[pi]))
		for _, ti := range assign[pi] {
			queue <- ti
		}
		close(queue)
		workers := min(window, len(assign[pi]))
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(pi int) {
				defer wg.Done()
				dp := job.peers[pi]
				for ti := range queue {
					if dp.isDead() {
						mu.Lock()
						failed = append(failed, ti)
						mu.Unlock()
						continue
					}
					n, err := job.countOn(ctx, dp, triples[ti])
					if err != nil {
						mu.Lock()
						failed = append(failed, ti)
						mu.Unlock()
						continue
					}
					counts[ti] = n
					mu.Lock()
					served[pi] = true
					mu.Unlock()
				}
			}(pi)
		}
	}
	wg.Wait()

	// Failover pass, sequential and in task order: each failed triple
	// tries the other live replicas starting after its home peer, then
	// falls back to the coordinator's own CSR — the count is identical
	// wherever it runs, so failover never perturbs the total.
	sort.Ints(failed)
	retries := len(failed)
	for _, ti := range failed {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		done := false
		for off := 1; off <= len(peers) && !done; off++ {
			dp := job.peers[(home[ti]+off)%len(peers)]
			if dp.isDead() {
				continue
			}
			if n, err := job.countOn(ctx, dp, triples[ti]); err == nil {
				counts[ti] = n
				mu.Lock()
				served[(home[ti]+off)%len(peers)] = true
				mu.Unlock()
				done = true
			}
		}
		if !done {
			counts[ti] = plan.CountTriple(triples[ti])
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	total := 0
	for _, n := range counts {
		total += n
	}
	distPeers := 0
	for _, ok := range served {
		if ok {
			distPeers++
		}
	}
	return &Result{
		Checksum:    checksumString(triangle.HashWords(uint64(total))),
		ComputeNS:   time.Since(start).Nanoseconds(),
		Triangles:   total,
		DistPeers:   distPeers,
		DistTriples: len(triples),
		DistRetries: retries,
	}, nil
}
