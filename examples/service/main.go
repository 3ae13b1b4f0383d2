// Service quickstart: run the graph analytics service in-process on a
// loopback listener, then drive it with the thin Go client — register a
// graph by generator spec under a named tenant, watch the single-flight
// cache turn a cold decomposition into a fast hot query, see a
// deadline-bounded request refused with a typed error, upload the same
// graph as a gzipped edge list to see fingerprint dedup, and read the
// per-tenant counters (stats schema v2).
//
// Failures report through the same structured JSON logger dexpanderd
// uses (internal/obs), not the stdlib logger, so the example's error
// output is machine-parseable exactly like the daemon's.
//
// The same API is served standalone by cmd/dexpanderd.
package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"time"

	"dexpander/internal/gen"
	"dexpander/internal/graph"
	"dexpander/internal/obs"
	"dexpander/internal/service"
)

// logger carries failures as structured JSON lines on stderr.
var logger = obs.NewJSONLogger(os.Stderr, slog.LevelInfo)

// fatal logs one structured error line and exits non-zero.
func fatal(msg string, kv ...any) {
	logger.Error(msg, kv...)
	os.Exit(1)
}

func main() {
	// A loopback listener on a free port, serving the service's API.
	svc := service.New(service.Config{Workers: 2})
	defer svc.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatal("listen", "err", err)
	}
	server := &http.Server{Handler: svc.Handler()}
	go server.Serve(ln) //nolint:errcheck
	defer server.Close()

	ctx := context.Background()
	c := service.NewClient("http://" + ln.Addr().String())
	// Every request this client makes is attributed (and quota'd) as
	// tenant "quickstart"; an empty Tenant means the server default.
	c.Tenant = "quickstart"

	// Register a generated graph: six cliques of 12 vertices in a ring.
	spec := gen.Spec{
		Family: "ring",
		Params: map[string]float64{"blocks": 6, "size": 12},
		Seed:   42,
	}
	snap, err := c.RegisterSpec(ctx, spec)
	if err != nil {
		fatal("register spec", "err", err)
	}
	fmt.Printf("registered %s: n=%d m=%d\n", snap.ID, snap.N, snap.M)

	// Cold query: the decomposition actually runs (once).
	start := time.Now()
	dec, err := c.Decompose(ctx, snap.ID, service.DecomposeParams{Eps: 0.6})
	if err != nil {
		fatal("decompose (cold)", "err", err)
	}
	cold := time.Since(start)
	fmt.Printf("decomposition: %d components, eps=%.4f, checksum %s\n",
		dec.Components, dec.EpsAchieved, dec.Checksum)

	// Hot query: identical params are served from the single-flight
	// cache — same bytes, no recomputation.
	start = time.Now()
	if _, err := c.Decompose(ctx, snap.ID, service.DecomposeParams{Eps: 0.6}); err != nil {
		fatal("decompose (hot)", "err", err)
	}
	fmt.Printf("cold %v -> hot %v\n", cold.Round(time.Microsecond), time.Since(start).Round(time.Microsecond))

	// Triangle queries amortize against the same snapshot.
	tri, err := c.TriangleCount(ctx, snap.ID, service.CountParams{})
	if err != nil {
		fatal("triangle count", "err", err)
	}
	fmt.Printf("triangles: %d (checksum %s)\n", tri.Triangles, tri.Checksum)

	// A context deadline rides the X-Timeout-Ms header, so the SERVER
	// enforces it: a fresh query under an already-spent budget is refused
	// with the "deadline" envelope code, which the client surfaces as a
	// typed error — errors.Is works across the HTTP boundary.
	// budget. (Whether the refusal arrives from the server or the
	// transport gives up first is a race; both are typed.)
	expired, cancel := context.WithTimeout(ctx, 5*time.Millisecond)
	_, err = c.Decompose(expired, snap.ID, service.DecomposeParams{Eps: 0.6, Seed: 99})
	cancel()
	switch {
	case errors.Is(err, service.ErrDeadline):
		var apiErr *service.APIError
		errors.As(err, &apiErr)
		fmt.Printf("expired budget refused: HTTP %d code=%q retryable=%v\n",
			apiErr.Status, apiErr.Code, apiErr.Retryable)
	case errors.Is(err, context.DeadlineExceeded):
		// The transport can also give up before the request is sent.
		fmt.Println("expired budget refused client-side before reaching the server")
	case err == nil:
		fatal("expired budget was served")
	default:
		fatal("deadline probe", "err", err)
	}

	// Uploading the same graph as a gzipped edge list dedups onto the
	// registered snapshot: the fingerprint is the identity.
	g, err := spec.Build()
	if err != nil {
		fatal("build graph", "err", err)
	}
	var plain bytes.Buffer
	if err := graph.WriteEdgeList(&plain, g); err != nil {
		fatal("write edge list", "err", err)
	}
	var packed bytes.Buffer
	zw := gzip.NewWriter(&packed)
	if _, err := zw.Write(plain.Bytes()); err != nil {
		fatal("gzip edge list", "err", err)
	}
	if err := zw.Close(); err != nil {
		fatal("gzip close", "err", err)
	}
	up, err := c.RegisterEdgeList(ctx, &packed)
	if err != nil {
		fatal("register edge list", "err", err)
	}
	fmt.Printf("gzip upload deduped onto %s (refs now %d)\n", up.ID, up.Refs)

	st, err := c.ServerStats(ctx)
	if err != nil {
		fatal("server stats", "err", err)
	}
	fmt.Printf("server: %d snapshot(s), %d cached result(s), %d computation(s), %d hit(s)\n",
		st.Snapshots, st.CacheEntries, st.Computations, st.Hits)
	// Stats schema v2 attributes work per tenant.
	if ts, ok := st.Tenants["quickstart"]; ok {
		fmt.Printf("tenant quickstart: %d computation(s), %d hit(s), %d snapshot ref(s)\n",
			ts.Computations, ts.Hits, ts.SnapshotRefs)
	}
}
