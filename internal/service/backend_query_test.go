package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"dexpander/internal/core"
	"dexpander/internal/gen"
	"dexpander/internal/graph"
)

// TestDecomposeBackendDispatch serves one snapshot through every
// registered backend plus auto, and checks the resolved backend is
// reported, accounted in the per-backend stats section, and that each
// backend occupies its own cache line. Each fixed backend's served
// checksum must equal a direct library run's digest, and that run must
// be a valid partition within the requested eps.
func TestDecomposeBackendDispatch(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	spec := gen.Spec{Family: "ring", Params: map[string]float64{"blocks": 4, "size": 6}, Seed: 2}
	snap, err := s.RegisterSpec("", spec)
	if err != nil {
		t.Fatal(err)
	}
	g, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	view := graph.WholeGraph(g)

	const eps = 0.4
	requested := append(core.BackendNames(), "auto")
	for _, backend := range requested {
		p := DecomposeParams{Eps: eps, Backend: backend}
		res, err := s.Query(bg, "", snap.ID, p)
		if err != nil {
			t.Fatalf("backend %s: %v", backend, err)
		}
		if res.Checksum == "" || res.Components < 1 {
			t.Fatalf("backend %s: degenerate result %+v", backend, res)
		}
		if backend == "auto" {
			if _, err := core.LookupBackend(res.Backend); err != nil {
				t.Fatalf("auto resolved to unregistered backend %q", res.Backend)
			}
			continue
		}
		if res.Backend != backend {
			t.Fatalf("backend %s: result reports %q", backend, res.Backend)
		}
		want, dec, err := decomposeChecksum(view, p)
		if err != nil {
			t.Fatalf("backend %s: direct run: %v", backend, err)
		}
		if res.Checksum != want {
			t.Fatalf("backend %s: served %s, library %s", backend, res.Checksum, want)
		}
		if err := dec.CheckPartition(view); err != nil {
			t.Fatalf("backend %s: direct run's partition: %v", backend, err)
		}
		if f := dec.InterFraction(view); f > eps {
			t.Fatalf("backend %s: inter-cluster fraction %.4f above eps %v", backend, f, eps)
		}
	}

	st := s.Stats()
	if st.Computations != uint64(len(requested)) {
		t.Fatalf("computations = %d, want %d (one per backend param)", st.Computations, len(requested))
	}
	var recorded uint64
	for name, bs := range st.Decompose {
		if _, err := core.LookupBackend(name); err != nil {
			t.Fatalf("stats key %q is not a registered backend", name)
		}
		if bs.LatencyUS == nil {
			t.Fatalf("backend %s stats missing latency histogram", name)
		}
		recorded += bs.Requests
	}
	if recorded != uint64(len(requested)) {
		t.Fatalf("per-backend requests sum to %d, want %d", recorded, len(requested))
	}
	for _, name := range core.BackendNames() {
		if bs, ok := st.Decompose[name]; !ok || bs.Requests < 1 {
			t.Fatalf("stats decompose section does not account for backend %s: %+v", name, st.Decompose)
		}
	}

	if _, err := s.Query(bg, "", snap.ID, DecomposeParams{Backend: "quantum"}); err == nil {
		t.Fatal("unknown backend accepted")
	}
	if _, err := s.Query(bg, "", snap.ID, DecomposeParams{MaxEpsFraction: 2}); err == nil {
		t.Fatal("max_eps_fraction = 2 accepted")
	}

	// auto with an explicit bound: the served result must satisfy it.
	res, err := s.Query(bg, "", snap.ID, DecomposeParams{Backend: "auto", MaxEpsFraction: eps})
	if err != nil {
		t.Fatal(err)
	}
	if res.EpsAchieved > eps {
		t.Fatalf("auto served eps_achieved %v above max_eps_fraction %v", res.EpsAchieved, eps)
	}
}

// stripComputeNS removes the one wall-clock field from a response body
// and re-renders it canonically (Go marshals map keys sorted), so two
// bodies compare byte-for-byte on every deterministic field.
func stripComputeNS(t *testing.T, body []byte) []byte {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("response %q: %v", body, err)
	}
	delete(m, "compute_ns")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDetBackendByteIdenticalAcrossServers pins the det backend's
// cross-process determinism at the HTTP boundary: two freshly started
// servers (separate Service instances, separate registries and caches —
// everything two separate processes would not share) must answer a det
// decompose request with byte-identical bodies, modulo only the
// compute_ns wall-time measurement.
func TestDetBackendByteIdenticalAcrossServers(t *testing.T) {
	spec := []byte(`{"spec":{"family":"gnp","params":{"n":64,"p":0.12},"seed":3}}`)
	params := []byte(`{"backend":"det","eps":0.3,"seed":42}`)
	var bodies [][]byte
	for i := 0; i < 2; i++ {
		s := New(Config{Workers: 1 + i}) // different pool sizes, same bytes
		srv := httptest.NewServer(s.Handler())
		reg, err := http.Post(srv.URL+"/v1/graphs", "application/json", bytes.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		var snap Snapshot
		if err := json.NewDecoder(reg.Body).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		reg.Body.Close()
		resp, err := http.Post(
			fmt.Sprintf("%s/v1/graphs/%s/decompose", srv.URL, snap.ID),
			"application/json", bytes.NewReader(params))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("server %d: status %d, body %s", i, resp.StatusCode, body)
		}
		bodies = append(bodies, stripComputeNS(t, body))
		srv.Close()
		s.Close()
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatalf("det responses differ across fresh servers:\n%s\n%s", bodies[0], bodies[1])
	}
}
