package main

import (
	"context"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"dexpander/internal/gen"
	"dexpander/internal/graph"
	"dexpander/internal/obs"
	"dexpander/internal/service"
	"dexpander/internal/triangle"
)

// boot starts run on a free loopback port with args and returns the
// daemon's base URL and the channel run's return value arrives on.
func boot(t *testing.T, ctx context.Context, args ...string) (string, <-chan error) {
	t.Helper()
	addrc := make(chan string, 1)
	done := make(chan error, 1)
	args = append([]string{"-addr", "127.0.0.1:0", "-log-level", "warn"}, args...)
	go func() { done <- run(ctx, args, func(addr string) { addrc <- addr }) }()
	select {
	case addr := <-addrc:
		return "http://" + addr, done
	case err := <-done:
		t.Fatalf("run %v returned before ready: %v", args, err)
	case <-time.After(10 * time.Second):
		t.Fatalf("run %v not ready after 10 s", args)
	}
	return "", nil
}

// TestFleetWiring boots a coordinator and three replicas through run and
// checks what the binary wires together: the -peers list reaches the
// service, a count-dist job fans out over the flag-configured fleet and
// traces across it, /metrics is served, and canceling the context shuts
// every daemon down cleanly. The served answers themselves are the
// service tests' to pin.
func TestFleetWiring(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var peers []string
	var dones []<-chan error
	for i := 0; i < 3; i++ {
		base, done := boot(t, ctx)
		peers = append(peers, base)
		dones = append(dones, done)
	}
	// A blank entry in -peers is dropped, not dialed.
	coordBase, done := boot(t, ctx, "-peers", strings.Join(peers, ", ,"))
	dones = append(dones, done)
	c := service.NewClient(coordBase)

	h, err := c.Healthz(ctx)
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if h.Status != "ok" || h.Peers != 3 {
		t.Fatalf("healthz %+v, want ok with 3 peers", h)
	}

	spec := gen.Spec{Family: "barabasi-albert", Params: map[string]float64{"n": 2048, "m0": 6}, Seed: 5}
	snap, err := c.RegisterSpec(ctx, spec)
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	g, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	want := triangle.CountParallel2D(graph.WholeGraph(g), 0)
	c.RequestID = "fleetwiring000001"
	res, err := c.TriangleCountDist(ctx, snap.ID, service.DistCountParams{})
	if err != nil {
		t.Fatalf("count-dist: %v", err)
	}
	if res.Triangles != want || res.DistPeers != 3 {
		t.Fatalf("count-dist served %d triangles over %d peers, want %d over 3", res.Triangles, res.DistPeers, want)
	}

	tr, err := c.Trace(ctx, c.RequestID)
	if err != nil {
		t.Fatalf("trace %s: %v", c.RequestID, err)
	}
	seen := map[string]bool{}
	for _, sp := range tr.Spans {
		if sp.Name == "replica.count" {
			seen[sp.Attrs["peer"]] = true
		}
	}
	for _, p := range peers {
		if !seen[p] {
			t.Fatalf("trace has no replica.count span from %s; peers seen %v", p, seen)
		}
	}

	resp, err := http.Get(coordBase + "/metrics")
	if err != nil {
		t.Fatalf("scrape /metrics: %v", err)
	}
	names, err := obs.ValidateProm(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/metrics: %v", err)
	}
	for _, series := range []string{"dexpander_peer_pushes_total", "dexpander_peer_triples_total", "dexpander_trace_ring_capacity", "dexpander_trace_spans_total"} {
		if !names[series] {
			t.Fatalf("/metrics is missing %s", series)
		}
	}

	cancel()
	for i, done := range dones {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("daemon %d: run returned %v after cancel, want nil", i, err)
			}
		case <-time.After(15 * time.Second):
			t.Fatalf("daemon %d still running 15 s after cancel", i)
		}
	}
}

// TestRunRejectsBeforeReady: a bad -log-level, an unknown flag, and an
// API or pprof address already in use each make run fail before it
// reports ready.
func TestRunRejectsBeforeReady(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	for _, args := range [][]string{
		{"-addr", "127.0.0.1:0", "-log-level", "loud"},
		{"-addr", "127.0.0.1:0", "-no-such-flag"},
		{"-addr", taken.Addr().String()},
		{"-addr", "127.0.0.1:0", "-debug-addr", taken.Addr().String()},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		err := run(ctx, args, func(addr string) {
			t.Errorf("run %v reported ready on %s", args, addr)
			cancel()
		})
		cancel()
		if err == nil {
			t.Fatalf("run %v returned nil", args)
		}
	}
}
