package graph

import (
	"bytes"
	"testing"
)

// FuzzReadEdgeList feeds arbitrary bytes to the bounded edge-list reader
// servers ingest untrusted uploads with (plain, gzip, and SNAP-header
// seeds live under testdata/fuzz). It must never panic, it must either
// fail or return a graph within its limits, and a graph it accepts must
// survive WriteEdgeList -> ReadEdgeList with its fingerprint intact.
func FuzzReadEdgeList(f *testing.F) {
	lim := ReadLimits{MaxVertices: 1 << 12, MaxEdges: 1 << 14, MaxBytes: 1 << 20}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadEdgeListLimited(bytes.NewReader(data), lim)
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
