package service

import (
	"context"
	"errors"
	"fmt"
	"slices"
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
// insertion, so DistCountTriples may read frag outside s.mu once looked
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

// DistCountTriples executes a batch of block triples against resident
// fragments: the replica half of the distributed count. It returns one
// count per triple, in order. Every row-block fragment the batch reads
// must already be resident under (snapID, tl.P, block range), and all of
// them are looked up before anything is counted: a miss returns
// ErrFragmentMissing naming the lowest absent block, so the coordinator
// re-pushes and retries. Once ctx is done no further triple starts and
// ctx's error is returned. When ctx carries a span, each triple is
// counted under a "triangle.triple" child of it (bi, bj, bk, count), and
// the finished children are returned for the caller to ship with its
// own span.
func (s *Service) DistCountTriples(ctx context.Context, snapID string, tl triangle.Tiling, triples []triangle.BlockTriple) ([]int, []obs.Span, error) {
	if err := checkRankSpace(tl.Ranks); err != nil {
		return nil, nil, err
	}
	if err := tl.Validate(); err != nil {
		return nil, nil, err
	}
	if limit := tl.P * (tl.P + 1) * (tl.P + 2) / 6; len(triples) > limit {
		return nil, nil, fmt.Errorf("service: batch of %d triples exceeds the %d of a %d-grid", len(triples), limit, tl.P)
	}
	for _, t := range triples {
		if t.I < 0 || t.I > t.J || t.J > t.K || t.K >= tl.P {
			return nil, nil, fmt.Errorf("service: block triple (%d,%d,%d) outside %d-grid", t.I, t.J, t.K, tl.P)
		}
	}
	frags, err := s.residentFragments(snapID, tl, triples)
	if err != nil {
		return nil, nil, err
	}
	sp := obs.SpanFromContext(ctx)
	counts := make([]int, len(triples))
	var spans []obs.Span
	for i, t := range triples {
		if ctx.Err() != nil {
			return nil, nil, ctxError(ctx)
		}
		child := sp.Child("triangle.triple")
		child.AttrInt("bi", t.I).AttrInt("bj", t.J).AttrInt("bk", t.K)
		n, err := triangle.CountFragments(tl, t, frags[t.I], frags[t.J])
		if err != nil {
			return nil, nil, err
		}
		counts[i] = n
		child.AttrInt("count", n).End()
		if child != nil {
			spans = append(spans, child.Snapshot())
		}
	}
	s.mu.Lock()
	s.stats.DistTriples += uint64(len(triples))
	s.mu.Unlock()
	return counts, spans, nil
}

// residentFragments returns, indexed by block, the resident fragment of
// every row block the triples read, all looked up in one critical
// section, or reports the lowest absent block as ErrFragmentMissing.
// FragmentHits counts one per block of a batch found fully resident;
// together with FragmentStores it proves each key is transferred at
// most once per replica while resident.
func (s *Service) residentFragments(snapID string, tl triangle.Tiling, triples []triangle.BlockTriple) ([]*triangle.Fragment, error) {
	need := make([]bool, tl.P)
	for _, t := range triples {
		need[t.I], need[t.J] = true, true
	}
	frags := make([]*triangle.Fragment, tl.P)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	s.fragTick++
	hits := 0
	for b, ok := range need {
		if !ok {
			continue
		}
		lo, hi := tl.Block(b)
		e, ok := s.frags[fragKey{fingerprint: snapID, p: tl.P, lo: lo, hi: hi}]
		if !ok {
			return nil, fmt.Errorf("%w: block %d = [%d, %d) of %s/%d",
				ErrFragmentMissing, b, lo, hi, snapID, tl.P)
		}
		e.lastUsed = s.fragTick
		frags[b] = e.frag
		hits++
	}
	s.stats.FragmentHits += uint64(hits)
	return frags, nil
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

// distJob is the coordinator's state for one distributed count.
type distJob struct {
	snapID  string
	plan    *triangle.DistPlan
	triples []triangle.BlockTriple // plan.Tiling.Triples(), in task order
	peers   []*distPeer

	// svc is the owning coordinator, for per-peer stats and the tracer;
	// span is the job's "dist" span (nil when the request is untraced).
	svc  *Service
	span *obs.Span

	encMu sync.Mutex
	enc   map[int][]byte // block -> encoded fragment, rendered once per job
}

// peerFailed marks the peer dead for the rest of the job and, the first
// time it does so in the job, accounts one failure to its per-peer stats
// section — unless the job's own context is done, in which case the
// error was the caller giving up, not the peer failing.
func (j *distJob) peerFailed(ctx context.Context, dp *distPeer) {
	if ctx.Err() != nil {
		return
	}
	dp.mu.Lock()
	first := !dp.dead
	dp.dead = true
	dp.mu.Unlock()
	if first {
		j.svc.recordDistPeer(dp.client.Base, func(ps *PeerDistStats) { ps.Failures++ })
	}
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
// confirmed it resident there. The per-peer lock makes concurrent
// batches agree on one push per (peer, block) — the at-most-once
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
// replica reported a block missing — e.g. evicted between push and
// count).
func (dp *distPeer) forget(b int) {
	dp.mu.Lock()
	delete(dp.pushed, b)
	dp.mu.Unlock()
}

// countBatch runs a batch of triples (indices into j.triples, in task
// order) on one peer: push every row-block fragment the batch needs
// that the peer does not hold yet, then ask for all the counts in one
// request. A fragment_missing answer re-pushes and retries once; a
// transport error marks the peer dead so its queued work fails over
// immediately instead of timing out batch by batch.
func (j *distJob) countBatch(ctx context.Context, dp *distPeer, batch []int) (counts []int, err error) {
	triples := make([]triangle.BlockTriple, len(batch))
	var blocks []int
	for i, ti := range batch {
		t := j.triples[ti]
		triples[i] = t
		blocks = append(blocks, t.I, t.J)
	}
	slices.Sort(blocks)
	blocks = slices.Compact(blocks)

	csp := j.span.Child("dist.count")
	csp.Attr("peer", dp.client.Base).AttrInt("triples", len(batch))
	defer func() {
		if err != nil {
			csp.Attr("outcome", "error")
		} else {
			total := 0
			for _, n := range counts {
				total += n
			}
			csp.AttrInt("count", total)
		}
		csp.End()
	}()
	for attempt := 0; ; attempt++ {
		for _, b := range blocks {
			if err = j.ensureFragment(ctx, dp, b); err != nil {
				j.peerFailed(ctx, dp)
				return nil, err
			}
		}
		if counts, err = j.distCountRemote(ctx, dp, triples, csp); err == nil {
			j.svc.recordDistPeer(dp.client.Base, func(ps *PeerDistStats) { ps.Triples += uint64(len(batch)) })
			return counts, nil
		}
		var apiErr *APIError
		if errors.As(err, &apiErr) && apiErr.Code == CodeFragmentMissing && attempt == 0 {
			for _, b := range blocks {
				dp.forget(b)
			}
			continue
		}
		if apiErr == nil {
			// Transport-level failure (connection refused or reset, a
			// malformed answer): assume the peer is gone for the rest of
			// the job.
			j.peerFailed(ctx, dp)
		}
		return nil, err
	}
}

// distCountRemote sends one count request for the batch. When the job
// is traced, the request carries the trace reference so the replica
// runs the batch under its own span and ships its spans back; the
// coordinator tags them with the peer's base URL and merges them into
// the local ring — that merge is what makes one dist job a single
// cross-replica trace.
func (j *distJob) distCountRemote(ctx context.Context, dp *distPeer, triples []triangle.BlockTriple, csp *obs.Span) ([]int, error) {
	var ref *TraceRef
	if csp != nil {
		ref = &TraceRef{ID: csp.TraceID, Parent: csp.ID}
	}
	counts, spans, err := dp.client.DistCount(ctx, j.snapID, j.plan.Tiling, triples, ref)
	if err != nil {
		return nil, err
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
	return counts, nil
}

// distCount is the coordinator: tile the view, schedule the block
// triples across the fleet by a deterministic volume-balanced (greedy
// LPT) assignment, split each peer's share into at most DistWindow
// cost-balanced batches of one count request each, fail triples over to
// the other replicas, and count the last resort locally. Called from
// DistCountParams.run with len(peers) > 0.
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
	// index), then each peer's share the same way onto its window's
	// batches. Deterministic in (snapshot, grid, peer list, window).
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
	assign := lptSplit(order, costs, len(peers))
	for pi, share := range assign {
		for _, ti := range share {
			home[ti] = pi
		}
	}

	job := &distJob{
		snapID:  snapshotID(fp),
		plan:    plan,
		triples: triples,
		peers:   make([]*distPeer, len(peers)),
		svc:     s,
		span:    dsp,
		enc:     make(map[int][]byte),
	}
	for pi, base := range peers {
		job.peers[pi] = &distPeer{
			client: &Client{Base: base, HTTP: s.peerHTTP},
			pushed: make(map[int]bool),
		}
	}

	counts := make([]int, len(triples))
	var mu sync.Mutex
	var failed []int
	served := make([]bool, len(peers))
	// run counts one batch on peer pi, storing its counts or queueing
	// its triples for failover.
	run := func(pi int, batch []int) {
		dp := job.peers[pi]
		var got []int
		ok := !dp.isDead()
		if ok {
			var err error
			got, err = job.countBatch(ctx, dp, batch)
			ok = err == nil
		}
		mu.Lock()
		defer mu.Unlock()
		if !ok {
			failed = append(failed, batch...)
			return
		}
		for i, ti := range batch {
			counts[ti] = got[i]
		}
		served[pi] = true
	}
	var wg sync.WaitGroup
	for pi, share := range assign {
		for _, batch := range lptSplit(share, costs, window) {
			if len(batch) == 0 {
				continue
			}
			slices.Sort(batch)
			wg.Add(1)
			go func() {
				defer wg.Done()
				run(pi, batch)
			}()
		}
	}
	wg.Wait()

	// Failover rounds, in task order: round off sends each failed
	// triple to the peer off places after its home, one batch per live
	// target; what no replica served falls back to the coordinator's own
	// CSR. Per-triple counts are identical wherever they run, so failover
	// never perturbs the total.
	retries := len(failed)
	for off := 1; off <= len(peers) && len(failed) > 0; off++ {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		slices.Sort(failed)
		targets := make([][]int, len(peers))
		for _, ti := range failed {
			pi := (home[ti] + off) % len(peers)
			targets[pi] = append(targets[pi], ti)
		}
		failed = nil
		for pi, batch := range targets {
			if len(batch) > 0 {
				run(pi, batch)
			}
		}
	}
	for _, ti := range failed {
		counts[ti] = plan.CountTriple(triples[ti])
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

// lptSplit deals items (already in descending cost order) onto k bins,
// each onto the least-loaded bin so far (ties by bin index): the greedy
// longest-processing-time schedule. Bins left empty stay in place.
func lptSplit(items []int, costs []int64, k int) [][]int {
	bins := make([][]int, k)
	load := make([]int64, k)
	for _, it := range items {
		pick := 0
		for b := 1; b < k; b++ {
			if load[b] < load[pick] {
				pick = b
			}
		}
		bins[pick] = append(bins[pick], it)
		load[pick] += costs[it]
	}
	return bins
}
