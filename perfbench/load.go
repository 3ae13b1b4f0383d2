package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"dexpander/internal/gen"
	"dexpander/internal/graph"
	"dexpander/internal/service"
)

// graphIn is one generated input graph, sent to the daemon either as an
// edge-list upload body or as a generator spec.
type graphIn struct {
	label  string
	body   []byte    // upload body; nil when registered by spec
	spec   *gen.Spec // nil for uploads
	tenant string
	id     string // snapshot id, set once registered

	once sync.Once
	g    *graph.Graph // in-process copy, built on first use
	gerr error
}

// graph returns the in-process copy: the upload body parsed exactly as
// the daemon parses it, or the spec built exactly as the daemon builds it.
func (gi *graphIn) graph() (*graph.Graph, error) {
	gi.once.Do(func() {
		if gi.spec != nil {
			gi.g, gi.gerr = gi.spec.Build()
		} else {
			gi.g, gi.gerr = graph.ReadEdgeListLimited(bytes.NewReader(gi.body), uploadLimits)
		}
	})
	return gi.g, gi.gerr
}

// uploadLimits mirrors the daemon's bounds on upload bodies.
var uploadLimits = graph.ReadLimits{MaxVertices: 1 << 24, MaxEdges: 1 << 26, MaxBytes: 1 << 31}

// Operation kinds.
const (
	kindUpload  = "upload"
	kindSpec    = "register"
	kindRelease = "release"
	kindQuery   = "query"
)

// keepWritable is how many write-stream snapshots stay registered; each
// further upload releases the oldest.
const keepWritable = 4

// op is one request the generator sends.
type op struct {
	kind   string
	graph  *graphIn
	params service.Params // queries only
	tenant string
	due    time.Duration // open loop: send time from the window start
}

// key names the op's output: the snapshot plus the algorithm and its
// parameters for queries, so equal keys must get equal answers.
func (o *op) key() string {
	if o.kind != kindQuery {
		return o.kind + " " + o.graph.label
	}
	return fmt.Sprintf("%s %s %+v", o.graph.label, o.params.Algorithm(), o.params)
}

// sample is one sent request. Times are measured from the window start.
type sample struct {
	op               *op
	due, sent, done  time.Duration
	res              *service.Result
	snap             *service.Snapshot
	err              error
	mismatch         bool // the answer disagreed with the direct library call
	served, computed bool // see markKeys
}

func (s *sample) ok() bool { return s.err == nil && !s.mismatch }

// latency is measured from when the request was due, so time spent
// waiting behind earlier requests counts.
func (s *sample) latency() time.Duration { return s.done - s.due }

// loadGen sends ops to the front daemon through one shared HTTP client
// holding at most conns connections.
type loadGen struct {
	clients map[string]*service.Client
	front   *service.Client
	start   time.Time

	mu   sync.Mutex
	live []*graphIn // write-stream snapshots, oldest first
}

func newLoadGen(base string, conns int) *loadGen {
	hc := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
	d := &loadGen{clients: map[string]*service.Client{}, front: &service.Client{Base: base, HTTP: hc}}
	for _, tn := range tenants {
		d.clients[tn] = &service.Client{Base: base, Tenant: tn, HTTP: hc}
	}
	return d
}

// tenants are the X-Tenant values the load generator spreads over.
var tenants = []string{"t0", "t1", "t2", "t3"}

func (d *loadGen) client(tn string) *service.Client {
	if c, ok := d.clients[tn]; ok {
		return c
	}
	return d.front
}

func (d *loadGen) since() time.Duration { return time.Since(d.start) }

// send makes the request s.op names and returns s plus, for a write-stream upload, the
// release of the oldest write snapshot it pushes out.
func (d *loadGen) send(ctx context.Context, s *sample, writeStream bool) []*sample {
	o := s.op
	c := d.client(o.tenant)
	s.sent = d.since()
	switch o.kind {
	case kindUpload:
		s.snap, s.err = c.RegisterEdgeList(ctx, bytes.NewReader(o.graph.body))
	case kindSpec:
		s.snap, s.err = c.RegisterSpec(ctx, *o.graph.spec)
	case kindRelease:
		s.err = c.Release(ctx, o.graph.id)
	case kindQuery:
		switch p := o.params.(type) {
		case service.CountParams:
			s.res, s.err = c.TriangleCount(ctx, o.graph.id, p)
		case service.DecomposeParams:
			s.res, s.err = c.Decompose(ctx, o.graph.id, p)
		case service.EnumerateParams:
			s.res, s.err = c.Enumerate(ctx, o.graph.id, p)
		case service.DistCountParams:
			s.res, s.err = c.TriangleCountDist(ctx, o.graph.id, p)
		default:
			s.err = fmt.Errorf("no client call for %T", p)
		}
	}
	s.done = d.since()
	out := []*sample{s}
	if s.snap != nil && s.err == nil {
		o.graph.id = s.snap.ID
	}
	if !writeStream || o.kind != kindUpload || s.err != nil {
		return out
	}
	d.mu.Lock()
	d.live = append(d.live, o.graph)
	var old *graphIn
	if len(d.live) > keepWritable {
		old, d.live = d.live[0], d.live[1:]
	}
	d.mu.Unlock()
	if old != nil {
		now := d.since()
		rel := &sample{op: &op{kind: kindRelease, graph: old, tenant: old.tenant}, due: now}
		out = append(out, d.send(ctx, rel, false)...)
	}
	return out
}

// closedLoop sends ops one after another from one client.
func (d *loadGen) closedLoop(ctx context.Context, ops []*op) []*sample {
	d.start = time.Now()
	var out []*sample
	for _, o := range ops {
		if ctx.Err() != nil {
			break
		}
		s := &sample{op: o, due: d.since()}
		out = append(out, d.send(ctx, s, false)...)
	}
	return out
}

// openLoop sends each op at its due time regardless of how earlier ones
// fare: the generator hands due requests, in order, to conns senders
// that each hold one connection. It returns the samples and how late the
// generator handed each request over.
func (d *loadGen) openLoop(ctx context.Context, ops []*op, conns int) ([]*sample, []time.Duration) {
	// Sized to the number of sends, so the generator never blocks on it.
	queue := make(chan *sample, len(ops))
	results := make([][]*sample, conns)
	d.start = time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for s := range queue {
				results[w] = append(results[w], d.send(ctx, s, true)...)
			}
		}(w)
	}
	lags := make([]time.Duration, 0, len(ops))
	timer := time.NewTimer(0)
	<-timer.C
loop:
	for _, o := range ops {
		if wait := o.due - d.since(); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				break loop
			}
		}
		lags = append(lags, d.since()-o.due)
		queue <- &sample{op: o, due: o.due}
	}
	close(queue)
	wg.Wait()
	var out []*sample
	for _, r := range results {
		out = append(out, r...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].due < out[j].due })
	return out, lags
}

// markKeys classifies query samples: computed marks the first request
// of each key (the one that made the daemon compute it), served marks
// requests sent after some earlier request of the same key had been
// answered, so the daemon held the result already.
func markKeys(samples []*sample) {
	firstSent := map[string]*sample{}
	firstDone := map[string]time.Duration{}
	for _, s := range samples {
		if s.op.kind != kindQuery {
			continue
		}
		k := s.op.key()
		if f, ok := firstSent[k]; !ok || s.sent < f.sent {
			firstSent[k] = s
		}
		if s.err == nil {
			if t, ok := firstDone[k]; !ok || s.done < t {
				firstDone[k] = s.done
			}
		}
	}
	for _, s := range samples {
		if s.op.kind != kindQuery {
			continue
		}
		k := s.op.key()
		s.computed = firstSent[k] == s
		if t, ok := firstDone[k]; ok && t <= s.sent {
			s.served = true
		}
	}
}
