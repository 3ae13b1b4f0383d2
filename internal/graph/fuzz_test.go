package graph

import (
	"bytes"
	"compress/gzip"
	"io"
	"runtime"
	"testing"
)

// FuzzReadEdgeList feeds arbitrary bytes to the bounded edge-list reader
// servers ingest untrusted uploads with (plain, gzip, and SNAP-header
// seeds live under testdata/fuzz, among them a 31-byte SNAP header that
// claims 99,999,999 edges). It must never panic; it must allocate no
// more than readAllocBound allows; it must either fail or return a graph
// within its limits; and a graph it accepts must survive WriteEdgeList
// -> ReadEdgeList with its fingerprint intact.
func FuzzReadEdgeList(f *testing.F) {
	lim := ReadLimits{MaxVertices: 1 << 12, MaxEdges: 1 << 14, MaxBytes: 1 << 20}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g, err := ReadEdgeListLimited(bytes.NewReader(data), lim)
		runtime.ReadMemStats(&after)
		n := 0
		if err == nil {
			n = g.N()
		}
		if grew, bound := after.TotalAlloc-before.TotalAlloc, readAllocBound(data, n, lim); grew > bound {
			t.Fatalf("reading %d bytes (n=%d) allocated %d bytes, bound %d", len(data), n, grew, bound)
		}
		if err != nil {
			return
		}
		if g.N() > lim.MaxVertices || g.M() > lim.MaxEdges {
			t.Fatalf("accepted a graph with n=%d m=%d beyond %+v", g.N(), g.M(), lim)
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatal(err)
		}
		back, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("written edge list does not read back: %v", err)
		}
		if back.Fingerprint() != g.Fingerprint() {
			t.Fatalf("round trip moved the fingerprint: n=%d m=%d -> n=%d m=%d", g.N(), g.M(), back.N(), back.M())
		}
	})
}

// readAllocBound is what reading data may allocate: a fixed 1 MiB for
// the reader's buffers, gzip state and the edge pre-size a SNAP header
// asks for, 128 bytes per byte of the stream the parser reads (a gzip
// body counts decompressed, up to lim.MaxBytes), and 64 bytes per vertex
// of the graph returned (n; a header's Nodes count is capped by
// lim.MaxVertices and costs nothing until a graph is built).
func readAllocBound(data []byte, n int, lim ReadLimits) uint64 {
	stream := int64(len(data))
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		if zr, err := gzip.NewReader(bytes.NewReader(data)); err == nil {
			m, _ := io.Copy(io.Discard, io.LimitReader(zr, lim.MaxBytes+1))
			stream = max(stream, m)
		}
	}
	return 1<<20 + 128*uint64(stream) + 64*uint64(n)
}
