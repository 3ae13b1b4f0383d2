package service

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dexpander/internal/graph"
	"dexpander/internal/obs"
	"dexpander/internal/par"
	"dexpander/internal/triangle"
)

// This file is the service side of the distributed triangle count: the
// replica-side fragment cache (one whole forward CSR per snapshot) plus
// count endpoint state, and the coordinator that keeps each snapshot's
// CSR and the peers' residency of it across jobs and deals a job's row
// ranges across the configured peer fleet. Preprocessing — rank order,
// forward CSR, shipping it — happens once per snapshot; each job only
// cuts row ranges and counts them. The protocol (fragment wire format,
// cache keys, scheduling, failure handling) is documented in README.md.
//
// Correctness contract: the coordinator reduces per-range counts in
// range order, and every range is counted exactly once — by a replica
// via triangle.CountRows or locally via Forward.CountRows, both of which
// run the one row-range task. The total is therefore bit-identical to
// triangle.CountParallel2D for every peer count, grid, window size, and
// failure pattern.

// fragEntry is one resident snapshot CSR: a DXFR1 fragment covering the
// snapshot's whole rank space, keyed by snapshot id alone. It is
// immutable after insertion, so DistCountRanges may read frag outside
// s.mu once looked up — eviction only unlinks the entry, it never
// mutates the arrays.
type fragEntry struct {
	frag     *triangle.Fragment
	bytes    int64
	lastUsed uint64
}

// StoreFragment admits one encoded snapshot CSR — a fragment covering
// the whole rank space [0, Ranks) — under the snapshot id. A resident
// key answers stored == false before anything is decoded, so a re-push
// costs no decode. A fresh key is decoded and validated once, then
// least-recently-used snapshots are evicted until the cache fits
// MaxFragmentBytes again. A body over that bound is refused with
// ErrFragmentTooLarge, and a universe beyond checkRankSpace's cap is
// refused too.
func (s *Service) StoreFragment(snapID string, data []byte) (bool, error) {
	size := int64(len(data))
	if size > s.cfg.MaxFragmentBytes {
		return false, fmt.Errorf("%w: %d bytes, cache bound %d",
			ErrFragmentTooLarge, size, s.cfg.MaxFragmentBytes)
	}
	s.mu.Lock()
	resident := s.touchFragmentLocked(snapID) != nil
	s.mu.Unlock()
	if resident {
		return false, nil
	}
	f, err := triangle.DecodeFragment(data)
	if err != nil {
		return false, err
	}
	if err := checkRankSpace(f.Ranks); err != nil {
		return false, err
	}
	if f.Lo != 0 || int(f.Hi) != f.Ranks {
		return false, fmt.Errorf("service: fragment covers [%d, %d), not the whole rank space [0, %d)",
			f.Lo, f.Hi, f.Ranks)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false, ErrClosed
	}
	if s.touchFragmentLocked(snapID) != nil {
		return false, nil // a concurrent push stored it first
	}
	for s.fragBytes+size > s.cfg.MaxFragmentBytes && len(s.frags) > 0 {
		s.evictFragmentLocked()
	}
	s.fragTick++
	s.frags[snapID] = &fragEntry{frag: f, bytes: size, lastUsed: s.fragTick}
	s.fragBytes += size
	s.stats.FragmentStores++
	s.stats.FragmentBytes = s.fragBytes
	return true, nil
}

// touchFragmentLocked returns snapID's resident entry, marked used, or
// nil when it is not resident.
func (s *Service) touchFragmentLocked(snapID string) *fragEntry {
	e := s.frags[snapID]
	if e != nil {
		s.fragTick++
		e.lastUsed = s.fragTick
	}
	return e
}

// evictFragmentLocked drops the least-recently-used snapshot CSR
// (deterministic tie-break by snapshot id).
func (s *Service) evictFragmentLocked() {
	var victimKey string
	var victim *fragEntry
	for k, e := range s.frags {
		if victim == nil || e.lastUsed < victim.lastUsed ||
			(e.lastUsed == victim.lastUsed && k < victimKey) {
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

// checkRankSpace rejects a rank universe larger than uploads may build
// (uploadLimits.MaxVertices): a replica sizes its stamp scratch by the
// universe, so an unchecked header would let a tiny request demand
// gigabytes, and an out-of-memory failure kills the whole process. A
// coordinator whose own graph is larger still gets the right total —
// its replicas refuse the ranges, and they fall back to its local
// count.
func checkRankSpace(ranks int) error {
	if ranks > uploadLimits.MaxVertices {
		return fmt.Errorf("service: rank space %d exceeds the %d-vertex cap", ranks, uploadLimits.MaxVertices)
	}
	return nil
}

// DistCountRanges counts a batch of row ranges against the snapshot's
// resident CSR: the replica half of the distributed count. It returns
// one count per range, in order: the triangles whose lowest-rank vertex
// lies in that range. Before anything is counted, the batch is checked:
// at most maxDistGrid ranges, each inside [0, ranks), and a rank space
// within checkRankSpace's cap that equals the resident CSR's. The CSR
// must already be resident under snapID (else ErrFragmentMissing, so the
// coordinator re-pushes and retries). Once ctx is done no further range
// starts and ctx's error is returned. When ctx carries a span, each
// range is counted under a "triangle.rows" child of it (lo, hi, count),
// and the finished children are returned for the caller to ship with
// its own span.
func (s *Service) DistCountRanges(ctx context.Context, snapID string, ranks int, ranges [][2]int32) ([]int, []obs.Span, error) {
	if err := checkRankSpace(ranks); err != nil {
		return nil, nil, err
	}
	if len(ranges) > maxDistGrid {
		return nil, nil, fmt.Errorf("service: batch of %d row ranges exceeds the %d of the largest job", len(ranges), maxDistGrid)
	}
	for _, rg := range ranges {
		if rg[0] < 0 || rg[0] > rg[1] || int(rg[1]) > ranks {
			return nil, nil, fmt.Errorf("service: row range [%d, %d) outside [0, %d)", rg[0], rg[1], ranks)
		}
	}
	csr, err := s.residentCSR(snapID)
	if err != nil {
		return nil, nil, err
	}
	if csr.Ranks != ranks {
		return nil, nil, fmt.Errorf("service: resident CSR of %s has %d ranks, request %d", snapID, csr.Ranks, ranks)
	}
	sp := obs.SpanFromContext(ctx)
	counts := make([]int, len(ranges))
	var spans []obs.Span
	for i, rg := range ranges {
		if ctx.Err() != nil {
			return nil, nil, ctxError(ctx)
		}
		child := sp.Child("triangle.rows")
		n, err := triangle.CountRows(csr, rg[0], rg[1])
		if err != nil {
			return nil, nil, err
		}
		counts[i] = n
		child.AttrInt("lo", int(rg[0])).AttrInt("hi", int(rg[1])).AttrInt("count", n).End()
		if child != nil {
			spans = append(spans, child.Snapshot())
		}
	}
	s.mu.Lock()
	s.stats.DistTriples += uint64(len(ranges))
	s.mu.Unlock()
	return counts, spans, nil
}

// residentCSR returns snapID's resident CSR, or ErrFragmentMissing.
// FragmentHits counts one per count request it serves; together with
// FragmentStores it shows each snapshot's CSR crossing the wire at most
// once per replica while resident.
func (s *Service) residentCSR(snapID string) (*triangle.Fragment, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	e := s.touchFragmentLocked(snapID)
	if e == nil {
		return nil, fmt.Errorf("%w: snapshot %s", ErrFragmentMissing, snapID)
	}
	s.stats.FragmentHits++
	return e.frag, nil
}

// snapDist is a snapshot's count-dist state: its forward CSR, built by
// the snapshot's first count-dist job and shared by every later one (a
// job at another grid is another cache key, so it reuses the CSR where
// the result cache cannot answer), and what each peer holds of it. The
// shared-memory counts (kernel=rank|auto|2d, peer-less count-dist)
// build their own CSR and keep none: the result cache answers their
// repeats. It hangs off the Snapshot by pointer (snapshot values are
// copied out of the registry). Evicting the snapshot frees the CSR; a
// re-registered snapshot starts from a fresh snapDist, so no residency
// outlives its snapshot.
type snapDist struct {
	once  sync.Once
	mu    sync.Mutex
	fw    *triangle.Forward // nil until built, and again once freed
	freed bool

	peers []residency // indexed like Config.Peers
}

func newSnapDist(peers int) *snapDist { return &snapDist{peers: make([]residency, peers)} }

// forward returns the snapshot's forward CSR, building it on first use;
// concurrent first counts wait for the one build.
func (sd *snapDist) forward(view *graph.Sub) *triangle.Forward {
	var built *triangle.Forward
	sd.once.Do(func() {
		built = triangle.NewForward(view)
		sd.mu.Lock()
		if !sd.freed {
			sd.fw = built
		}
		sd.mu.Unlock()
	})
	if built != nil {
		return built
	}
	sd.mu.Lock()
	fw := sd.fw
	sd.mu.Unlock()
	if fw == nil {
		// The snapshot was evicted: serve this job, cache nothing.
		fw = triangle.NewForward(view)
	}
	return fw
}

// free drops the CSR; jobs already holding it keep their reference.
func (sd *snapDist) free() {
	sd.mu.Lock()
	sd.fw, sd.freed = nil, true
	sd.mu.Unlock()
}

// residency is what the coordinator knows about one snapshot's CSR on
// one peer, across jobs. mu serializes the pushes of that snapshot to
// that peer, so concurrent batches and jobs share one push.
type residency struct {
	mu   sync.Mutex
	gen  uint64 // successful pushes so far; names the latest copy
	held bool   // the peer holds copy gen
	// refused is set once the peer refuses the CSR as too large for its
	// cache; the snapshot is never offered to it again.
	refused atomic.Bool
}

// forget records that the peer no longer holds copy gen: it answered
// fragment_missing (evicted or restarted). A newer copy, pushed by a
// concurrent batch since, stays recorded.
func (r *residency) forget(gen uint64) {
	r.mu.Lock()
	if r.gen == gen {
		r.held = false
	}
	r.mu.Unlock()
}

// distPeer is the coordinator's per-job state for one peer that has not
// refused the snapshot.
type distPeer struct {
	client *Client
	res    *residency // the snapshot's residency on this peer

	mu   sync.Mutex
	dead bool // transport-level failure: stop sending it work this job
}

// usable reports whether the peer may still take this job's work.
func (dp *distPeer) usable() bool {
	dp.mu.Lock()
	defer dp.mu.Unlock()
	return !dp.dead && !dp.res.refused.Load()
}

// distJob is the coordinator's state for one distributed count.
type distJob struct {
	snapID string
	fw     *triangle.Forward // the snapshot's CSR, pushed whole
	ranges [][2]int32        // the job's row ranges, in range order

	// svc is the owning coordinator, for per-peer stats and the tracer;
	// span is the job's "dist" span (nil when the request is untraced).
	svc  *Service
	span *obs.Span

	encOnce sync.Once
	enc     []byte // fw's DXFR1 encoding, rendered by the job's first push
}

// encoded returns the CSR's wire bytes, encoding them at most once per
// job however many peers the job pushes to.
func (j *distJob) encoded() []byte {
	j.encOnce.Do(func() { j.enc = j.fw.Fragment().Encode() })
	return j.enc
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

// ensureResident makes sure the peer holds the snapshot's CSR — pushing
// it, encoded whole, unless the coordinator already knows the peer holds
// it — and returns the copy's generation for a later forget. The
// residency lock makes concurrent batches and jobs share one push per
// (peer, snapshot). A push refused as too large marks the snapshot
// refused on that peer; any other failed push marks the peer dead.
func (j *distJob) ensureResident(ctx context.Context, dp *distPeer) (uint64, error) {
	r := dp.res
	r.mu.Lock()
	defer r.mu.Unlock()
	if !dp.usable() {
		return 0, fmt.Errorf("service: peer %s marked failed or refusing %s", dp.client.Base, j.snapID)
	}
	if r.held {
		return r.gen, nil
	}
	data := j.encoded()
	psp := j.span.Child("dist.push")
	psp.Attr("peer", dp.client.Base).AttrInt("bytes", len(data))
	err := dp.client.PutFragment(ctx, j.snapID, data)
	psp.End()
	switch {
	case errors.Is(err, ErrFragmentTooLarge):
		r.refused.Store(true)
		return 0, err
	case err != nil:
		j.peerFailed(ctx, dp)
		return 0, err
	}
	r.gen++
	r.held = true
	j.svc.recordDistPeer(dp.client.Base, func(ps *PeerDistStats) {
		ps.Pushes++
		ps.PushBytes += int64(len(data))
	})
	return r.gen, nil
}

// countBatch runs a batch of row ranges (indices into j.ranges, in
// range order) on one peer: make sure it holds the snapshot's CSR, then
// ask for all the counts in one request. A fragment_missing answer
// forgets the peer's copy, re-pushes and retries once; a transport error
// marks the peer dead so its queued work fails over immediately instead
// of timing out batch by batch.
func (j *distJob) countBatch(ctx context.Context, dp *distPeer, batch []int) (counts []int, err error) {
	ranges := make([][2]int32, len(batch))
	for i, ri := range batch {
		ranges[i] = j.ranges[ri]
	}

	csp := j.span.Child("dist.count")
	csp.Attr("peer", dp.client.Base).AttrInt("ranges", len(batch))
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
		gen, err := j.ensureResident(ctx, dp)
		if err != nil {
			return nil, err
		}
		if counts, err = j.distCountRemote(ctx, dp, ranges, csp); err == nil {
			j.svc.recordDistPeer(dp.client.Base, func(ps *PeerDistStats) { ps.Triples += uint64(len(batch)) })
			return counts, nil
		}
		var apiErr *APIError
		if !errors.As(err, &apiErr) {
			// Transport-level failure (connection refused or reset, a
			// malformed answer): assume the peer is gone for the rest of
			// the job.
			j.peerFailed(ctx, dp)
		} else if apiErr.Code == CodeFragmentMissing && attempt == 0 {
			dp.res.forget(gen)
			continue
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
func (j *distJob) distCountRemote(ctx context.Context, dp *distPeer, ranges [][2]int32, csp *obs.Span) ([]int, error) {
	var ref *TraceRef
	if csp != nil {
		ref = &TraceRef{ID: csp.TraceID, Parent: csp.ID}
	}
	counts, spans, err := dp.client.DistCount(ctx, j.snapID, j.fw.Ranks(), ranges, ref)
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

// distCount is the coordinator: cut the snapshot's cached forward CSR
// into row ranges balanced by wedge work, deal them round-robin across
// the peers that have not refused the snapshot, send each peer's share
// in at most DistWindow batches of one count request each, fail ranges
// over to the other replicas, and count the last resort locally. Called
// from DistCountParams.run with len(Config.Peers) > 0.
func (s *Service) distCount(ctx context.Context, view *graph.Sub, snap *Snapshot, grid int) (res *Result, err error) {
	start := time.Now()
	window := s.cfg.DistWindow
	var peers []*distPeer
	for pi, base := range s.cfg.Peers {
		// A peer that refused the snapshot's CSR is not offered it again.
		if r := &snap.dist.peers[pi]; !r.refused.Load() {
			peers = append(peers, &distPeer{client: &Client{Base: base, HTTP: s.peerHTTP}, res: r})
		}
	}
	dsp := obs.SpanFromContext(ctx).Child("dist")
	defer func() {
		if err != nil {
			dsp.Attr("outcome", "error")
		} else {
			dsp.AttrInt("count", res.Triangles).AttrInt("retries", res.DistRetries)
		}
		dsp.End()
	}()
	// The plan: the snapshot's CSR (built here by its first count) and
	// the job's cut of it.
	psp := dsp.Child("dist.plan")
	fw := snap.dist.forward(view)
	p := grid
	if p == 0 {
		p = min(triangle.AutoGrid(len(s.cfg.Peers)*window, fw.Ranks()), maxDistGrid)
	}
	cuts := fw.RowCuts(p)
	ranges := make([][2]int32, len(cuts)-1)
	for i := range ranges {
		ranges[i] = [2]int32{cuts[i], cuts[i+1]}
	}
	psp.AttrInt("grid", p).AttrInt("ranges", len(ranges)).End()
	dsp.AttrInt("grid", p).AttrInt("peers", len(peers)).AttrInt("ranges", len(ranges))
	job := &distJob{snapID: snap.ID, fw: fw, ranges: ranges, svc: s, span: dsp}

	counts := make([]int, len(ranges))
	var mu sync.Mutex
	var failed []int
	served := make([]bool, len(peers))
	// run counts one batch on peer pi, storing its counts or queueing
	// its ranges for failover.
	run := func(pi int, batch []int) {
		dp := peers[pi]
		var got []int
		ok := dp.usable()
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
		for i, ri := range batch {
			counts[ri] = got[i]
		}
		served[pi] = true
	}

	retries := 0
	if len(peers) == 0 {
		// Every peer refused the snapshot: count all of it locally.
		for ri := range ranges {
			failed = append(failed, ri)
		}
	} else {
		// Deterministic schedule: range ri rides in batch ri mod
		// (peers x DistWindow), and batch b goes to peer b mod peers, so
		// range ri's home is peer ri mod peers and each peer gets at most
		// DistWindow batches. Ranges carry near-equal wedge work, so
		// dealing them evenly balances the peers. Deterministic in
		// (snapshot, grid, peer list, window).
		batches := make([][]int, len(peers)*window)
		for ri := range ranges {
			b := ri % len(batches)
			batches[b] = append(batches[b], ri)
		}
		var wg sync.WaitGroup
		for b, batch := range batches {
			if len(batch) > 0 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					run(b%len(peers), batch)
				}()
			}
		}
		wg.Wait()

		// Failover rounds, in range order: round off sends each failed
		// range to the peer off places after its home, one batch per
		// live target; what no replica served falls back to the
		// coordinator's own CSR below. Per-range counts are identical
		// wherever they run, so failover never perturbs the total.
		retries = len(failed)
		for off := 1; off <= len(peers) && len(failed) > 0; off++ {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			slices.Sort(failed)
			targets := make([][]int, len(peers))
			for _, ri := range failed {
				pi := (ri%len(peers) + off) % len(peers)
				targets[pi] = append(targets[pi], ri)
			}
			failed = nil
			for pi, batch := range targets {
				if len(batch) > 0 {
					run(pi, batch)
				}
			}
		}
	}
	par.ForEach(par.Workers(0), len(failed), func(i int) {
		rg := ranges[failed[i]]
		counts[failed[i]] = fw.CountRows(rg[0], rg[1])
	})
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
		DistTriples: len(ranges),
		DistRetries: retries,
	}, nil
}
