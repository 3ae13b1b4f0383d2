package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dexpander/internal/congest"
	"dexpander/internal/core"
	"dexpander/internal/graph"
	"dexpander/internal/ldd"
	"dexpander/internal/nibble"
)

// span is one timed call. Spans of one request share Req; Parent is 0
// for a request's top-level calls. Start and End are nanoseconds since
// the recorder was created.
type span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Name    string `json:"name"`
	Req     string `json:"req"`
	Workers int    `json:"workers,omitempty"` // in-process replay pass
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps finished spans in memory until the run writes them out.
type recorder struct {
	t0     time.Time
	nextID atomic.Uint64
	mu     sync.Mutex
	spans  []*span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span; end closes and records it.
func (r *recorder) begin(name, req string, parent *span, workers int) *span {
	sp := &span{ID: r.nextID.Add(1), Name: name, Req: req, Workers: workers, Start: int64(time.Since(r.t0))}
	if parent != nil {
		sp.Parent = parent.ID
	}
	return sp
}

func (r *recorder) end(sp *span) {
	sp.End = int64(time.Since(r.t0))
	r.add(sp)
}

func (r *recorder) add(sp *span) {
	r.mu.Lock()
	r.spans = append(r.spans, sp)
	r.mu.Unlock()
}

// timed runs f under a span.
func (r *recorder) timed(name, req string, parent *span, workers int, f func(sp *span)) {
	sp := r.begin(name, req, parent, workers)
	f(sp)
	r.end(sp)
}

func (r *recorder) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// write stores the spans as JSON lines, in start order.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	sort.Slice(r.spans, func(i, j int) bool { return r.spans[i].Start < r.spans[j].Start })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, sp := range r.spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// children groups spans under their parent id.
func children(spans []*span) map[uint64][]*span {
	out := map[uint64][]*span{}
	for _, sp := range spans {
		if sp.Parent != 0 {
			out[sp.Parent] = append(out[sp.Parent], sp)
		}
	}
	return out
}

// selfTime is a span's duration minus the part of it its children
// cover (the union of their intervals, so concurrent children are not
// subtracted twice).
func selfTime(sp *span, kids []*span) time.Duration {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		iv = append(iv, [2]int64{max(k.Start, sp.Start), min(k.End, sp.End)})
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, reach int64
	reach = sp.Start
	for _, x := range iv {
		lo := max(x[0], reach)
		if x[1] > lo {
			covered += x[1] - lo
			reach = x[1]
		}
	}
	return sp.dur() - time.Duration(covered)
}

// timedSubs wraps decomposition subroutines so every LDD and SparseCut
// call runs under a child span of the decomposition it serves, under the
// daemon's span names core.ldd and core.cut. It forwards arguments and
// results untouched; the replay proves that by comparing digests.
type timedSubs struct {
	inner   core.Subroutines
	rec     *recorder
	parent  *span
	workers int
}

func (t timedSubs) LDD(view *graph.Sub, beta float64, seed uint64) (res *ldd.Result, st congest.Stats, err error) {
	t.rec.timed("core.ldd", t.parent.Req, t.parent, t.workers, func(*span) {
		res, st, err = t.inner.LDD(view, beta, seed)
	})
	return res, st, err
}

func (t timedSubs) SparseCut(comm *graph.Sub, active *graph.VSet, phi float64, seed uint64) (res *nibble.PartitionResult, st congest.Stats, err error) {
	t.rec.timed("core.cut", t.parent.Req, t.parent, t.workers, func(*span) {
		res, st, err = t.inner.SparseCut(comm, active, phi, seed)
	})
	return res, st, err
}

// detSubs is the det backend's pair of subroutines built from their
// public parts: ball-growing clustering for LDD and the deterministic
// sweep-cut schedule for SparseCut. Like the backend, both ignore the
// seed.
type detSubs struct{}

func (detSubs) LDD(view *graph.Sub, beta float64, _ uint64) (*ldd.Result, congest.Stats, error) {
	return ldd.BallClustering(view, ldd.NewParams(view.Members().Len(), beta, ldd.Practical)), congest.Stats{}, nil
}

func (detSubs) SparseCut(comm *graph.Sub, active *graph.VSet, phi float64, _ uint64) (*nibble.PartitionResult, congest.Stats, error) {
	return nibble.DetSparseCut(comm.Restrict(active), phi, nibble.Practical), congest.Stats{}, nil
}
