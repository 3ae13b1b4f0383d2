package obs

import (
	"context"
	"sync"
	"testing"
)

func TestSpanTreeAndTrace(t *testing.T) {
	tr := NewTracer(16, 1)
	root := tr.Root("trace-a", "query")
	root.Attr("tenant", "t1")
	child := root.Child("compute")
	grand := child.Child("decompose").AttrInt("level", 1)
	grand.End()
	child.End()
	root.End()

	// An unrelated trace must not leak in.
	other := tr.Root("trace-b", "query")
	other.End()

	spans := tr.Trace("trace-a")
	if len(spans) != 3 {
		t.Fatalf("trace-a has %d spans, want 3", len(spans))
	}
	byName := map[string]Span{}
	for _, sp := range spans {
		if sp.TraceID != "trace-a" {
			t.Fatalf("foreign span %+v", sp)
		}
		byName[sp.Name] = sp
	}
	if byName["compute"].Parent != byName["query"].ID {
		t.Fatalf("compute parent = %d, want query ID %d", byName["compute"].Parent, byName["query"].ID)
	}
	if byName["decompose"].Parent != byName["compute"].ID {
		t.Fatal("decompose not parented under compute")
	}
	if byName["query"].Attrs["tenant"] != "t1" {
		t.Fatalf("attrs lost: %+v", byName["query"].Attrs)
	}
	if byName["decompose"].Attrs["level"] != "1" {
		t.Fatalf("int attr lost: %+v", byName["decompose"].Attrs)
	}
	if byName["query"].DurationNS < byName["compute"].DurationNS {
		t.Fatal("parent duration shorter than child")
	}
}

// TestConcurrentChildren opens and ends children of one shared parent
// from several goroutines, the way per-task spans run on a par fan-out's
// workers; under -race it checks Child and End need no caller locking.
func TestConcurrentChildren(t *testing.T) {
	tr := NewTracer(64, 1)
	root := tr.Root("trace-c", "level")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer root.Child("task").AttrInt("task", i).End()
		}(i)
	}
	wg.Wait()
	root.End()
	tasks := map[string]bool{}
	for _, sp := range tr.Trace("trace-c") {
		if sp.Name != "task" {
			continue
		}
		if sp.Parent != root.ID {
			t.Fatalf("task span %d parents under %d, want %d", sp.ID, sp.Parent, root.ID)
		}
		tasks[sp.Attrs["task"]] = true
	}
	if len(tasks) != 8 {
		t.Fatalf("%d distinct task spans, want 8", len(tasks))
	}
}

func TestRingBounded(t *testing.T) {
	tr := NewTracer(4, 1)
	for i := 0; i < 10; i++ {
		tr.Root(NewTraceID(), "s").End()
	}
	total, evicted := tr.Counts()
	if total != 10 || evicted != 6 {
		t.Fatalf("total=%d evicted=%d, want 10, 6", total, evicted)
	}
	// Ring never exceeds capacity: at most 4 distinct spans remain.
	kept := 0
	tr.mu.Lock()
	kept = len(tr.ring)
	tr.mu.Unlock()
	if kept != 4 {
		t.Fatalf("ring holds %d, want 4", kept)
	}
}

func TestSamplingDeterministicAndPhasesAlwaysOn(t *testing.T) {
	a := NewTracer(1024, 0.5)
	b := NewTracer(1024, 0.5)
	sampled := 0
	for i := 0; i < 256; i++ {
		id := NewTraceID()
		sa, sb := a.Root(id, "s"), b.Root(id, "s")
		if sa.Sampled() != sb.Sampled() {
			t.Fatalf("trace %s sampled differently on two tracers", id)
		}
		if sa.Sampled() {
			sampled++
		}
		sa.End()
		sb.End()
	}
	if sampled == 0 || sampled == 256 {
		t.Fatalf("sampling at 0.5 kept %d/256 traces", sampled)
	}
	// Phase aggregates count every span regardless of sampling.
	if ph := a.Phases()["s"]; ph.Count != 256 {
		t.Fatalf("phase count %d, want 256 (phases must ignore sampling)", ph.Count)
	}
	total, _ := a.Counts()
	if total != uint64(sampled) {
		t.Fatalf("ring got %d spans, want the %d sampled", total, sampled)
	}

	// sample=0 keeps nothing in the ring but still aggregates.
	z := NewTracer(16, 0)
	z.Root("zzz", "s").End()
	if got, _ := z.Counts(); got != 0 {
		t.Fatalf("sample=0 wrote %d spans to the ring", got)
	}
	if z.Phases()["s"].Count != 1 {
		t.Fatal("sample=0 lost the phase aggregate")
	}
}

func TestAdoptAndRecord(t *testing.T) {
	coord := NewTracer(64, 0) // sample 0: only adopted/recorded spans persist
	replica := NewTracer(64, 0)

	rsp := replica.Adopt("shared", 42, "replica.count")
	if !rsp.Sampled() {
		t.Fatal("adopted span must be sampled")
	}
	rsp.End()
	snap := rsp.Snapshot()
	if snap.Parent != 42 || snap.TraceID != "shared" {
		t.Fatalf("snapshot %+v", snap)
	}
	snap.Attrs = map[string]string{"peer": "http://r1"}
	coord.Record(snap)
	got := coord.Trace("shared")
	if len(got) != 1 || got[0].Name != "replica.count" || got[0].Attrs["peer"] != "http://r1" {
		t.Fatalf("recorded trace %+v", got)
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	sp := tr.Root("x", "y")
	if sp != nil {
		t.Fatal("nil tracer produced a span")
	}
	// Every span method must be a no-op on nil.
	sp.Attr("a", "b").AttrInt("c", 1).Child("z").End()
	sp.End()
	if sp.Sampled() {
		t.Fatal("nil span sampled")
	}
	if tr.Trace("x") != nil || tr.Phases() != nil || tr.Capacity() != 0 {
		t.Fatal("nil tracer accessors not zero")
	}
	tr.Record(Span{TraceID: "x"})
	if NewTracer(0, 1) != nil {
		t.Fatal("capacity 0 must disable tracing")
	}
	ctx := ContextWithSpan(context.Background(), nil)
	if ctx != context.Background() {
		t.Fatal("nil span must not wrap the context")
	}
	if SpanFromContext(context.Background()) != nil {
		t.Fatal("background context has a span")
	}
}

func TestContextRoundTrip(t *testing.T) {
	tr := NewTracer(8, 1)
	sp := tr.Root("ctx", "http")
	ctx := ContextWithSpan(context.Background(), sp)
	if got := SpanFromContext(ctx); got != sp {
		t.Fatal("span did not round-trip through context")
	}
}

func TestDisabledPathZeroAlloc(t *testing.T) {
	var tr *Tracer
	ctx := context.Background()
	got := testing.AllocsPerRun(1000, func() {
		sp := SpanFromContext(ctx)
		sp = sp.Child("compute")
		sp.Attr("k", "v")
		sp.AttrInt("n", 7)
		sp.End()
		root := tr.Root("id", "query")
		root.End()
		_ = ContextWithSpan(ctx, nil)
	})
	if got != 0 {
		t.Fatalf("disabled observability allocated %.1f per op, want 0", got)
	}
}

func TestNewTraceID(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 64; i++ {
		id := NewTraceID()
		if len(id) != 16 {
			t.Fatalf("trace ID %q not 16 hex chars", id)
		}
		for _, c := range id {
			if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
				t.Fatalf("trace ID %q not hex", id)
			}
		}
		seen[id] = true
	}
	if len(seen) < 60 {
		t.Fatalf("only %d distinct IDs in 64 draws", len(seen))
	}
}

func BenchmarkSpanDisabled(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.Root("id", "query")
		c := sp.Child("compute")
		c.End()
		sp.End()
	}
}

func BenchmarkSpanEnabled(b *testing.B) {
	tr := NewTracer(4096, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.Root("id", "query")
		c := sp.Child("compute")
		c.End()
		sp.End()
	}
}
