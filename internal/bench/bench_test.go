package bench

import (
	"encoding/json"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"dexpander/internal/gen"
	"dexpander/internal/graph"
	"dexpander/internal/harness"
)

// tinyScenarios keeps the package tests fast: two families at toy sizes.
func tinyScenarios() []Scenario {
	return []Scenario{
		{
			Family: "gnp",
			Params: "n=24 p=0.30",
			Build:  func(seed uint64) *graph.Graph { return gen.GNP(24, 0.3, seed) },
		},
		{
			Family: "bipartite",
			Params: "nl=10 nr=10 p=0.30",
			Build:  func(seed uint64) *graph.Graph { return gen.BipartiteGNP(10, 10, 0.3, seed) },
		},
	}
}

func TestRunMatrixProducesConsistentCells(t *testing.T) {
	rep := Run(tinyScenarios(), Algorithms(), Options{Seed: 3})
	if rep.Schema != SchemaVersion {
		t.Fatalf("schema %q", rep.Schema)
	}
	if len(rep.Cells) != 2*len(Algorithms()) {
		t.Fatalf("%d cells, want %d", len(rep.Cells), 2*len(Algorithms()))
	}
	// All triangle algorithms must agree per scenario, and the bipartite
	// scenario must be triangle-free.
	byScenario := map[string]map[string]Cell{}
	for _, c := range rep.Cells {
		if c.Error != "" {
			t.Fatalf("cell %s errored: %s", c.Key(), c.Error)
		}
		if byScenario[c.Scenario] == nil {
			byScenario[c.Scenario] = map[string]Cell{}
		}
		byScenario[c.Scenario][c.Algorithm] = c
	}
	for scen, algs := range byScenario {
		ref := algs["brute"]
		for _, name := range []string{"brute-par", "clique-dlp", "naive", "pipeline"} {
			c := algs[name]
			if c.Triangles != ref.Triangles || c.Checksum != ref.Checksum {
				t.Errorf("%s: %s found %d (%s), brute found %d (%s)",
					scen, name, c.Triangles, c.Checksum, ref.Triangles, ref.Checksum)
			}
		}
		if scen == "bipartite" && ref.Triangles != 0 {
			t.Errorf("bipartite scenario reported %d triangles, want 0", ref.Triangles)
		}
		if eng := algs["engine"]; eng.Rounds == 0 || eng.Messages == 0 {
			t.Errorf("%s: engine probe recorded no traffic (%+v)", scen, eng)
		}
	}
}

// TestRunDeterministicOutputs pins the cross-run validation contract:
// same seed, same cells (up to wall time and allocation noise).
func TestRunDeterministicOutputs(t *testing.T) {
	a := Run(tinyScenarios(), Algorithms(), Options{Seed: 9})
	b := Run(tinyScenarios(), Algorithms(), Options{Seed: 9})
	for i := range a.Cells {
		ca, cb := a.Cells[i], b.Cells[i]
		if ca.Key() != cb.Key() || ca.Checksum != cb.Checksum ||
			ca.Triangles != cb.Triangles || ca.Rounds != cb.Rounds ||
			ca.Messages != cb.Messages {
			t.Fatalf("cell %d differs across identical runs:\n%+v\n%+v", i, ca, cb)
		}
	}
}

func TestWriteLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rep := Run(tinyScenarios()[:1], LocalAlgorithms(), Options{Seed: 1})
	tbl, err := harness.E2TriangleScaling(harness.Small, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Notes) == 0 {
		tbl.AddNote("every encoded key is present")
	}
	// JSON has no NaN or infinity: Write must still succeed.
	nonFinite := &harness.Table{Title: "non-finite", Headers: []string{"inf", "nan"}}
	nonFinite.AddRow(math.Inf(1), math.NaN())
	rep.Tables = append(rep.Tables, tbl, nonFinite)
	path, err := rep.Write(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path)[:6] != "BENCH_" {
		t.Fatalf("unexpected report name %s", path)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Cells) != len(rep.Cells) || len(got.Tables) != 2 {
		t.Fatalf("round trip lost data: %d cells %d tables", len(got.Cells), len(got.Tables))
	}
	if got.Tables[0].Title != tbl.Title || len(got.Tables[0].Rows) != len(tbl.Rows) ||
		!slices.Equal(got.Tables[0].Notes, tbl.Notes) {
		t.Fatalf("table round trip mismatch: %+v", got.Tables[0])
	}
	// Cells come back typed: ints as JSON numbers, floats, bools and
	// strings as themselves; a non-finite float as its rendering.
	for i, c := range tbl.Rows[0] {
		if v, ok := c.(int); ok {
			c = float64(v)
		}
		if got.Tables[0].Rows[0][i] != c {
			t.Fatalf("cell %d (%s) = %#v, wrote %#v", i, tbl.Headers[i], got.Tables[0].Rows[0][i], c)
		}
	}
	if row := got.Tables[1].Rows[0]; !slices.Equal(row, harness.Row{"+Inf", "NaN"}) {
		t.Fatalf("non-finite cells read back as %#v", row)
	}
	// The table schema is harness.Table's JSON form: exactly these keys.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Tables []map[string]json.RawMessage `json:"tables"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	keys := slices.Sorted(maps.Keys(doc.Tables[0]))
	if want := []string{"headers", "notes", "rows", "title"}; !slices.Equal(keys, want) {
		t.Fatalf("encoded table keys %v, want %v", keys, want)
	}
	// Unknown schema must be rejected.
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schema":"other/v9"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bad); err == nil {
		t.Fatal("Load accepted a foreign schema")
	}
}

func TestCompareFlagsRegressionsAndMismatches(t *testing.T) {
	base := Run(tinyScenarios(), LocalAlgorithms(), Options{Seed: 5})
	base.CalibNS = 1000

	// Identical current run: no problems.
	cur := Run(tinyScenarios(), LocalAlgorithms(), Options{Seed: 5})
	cur.CalibNS = 1000
	for i := range cur.Cells {
		cur.Cells[i].WallNS = base.Cells[i].WallNS
	}
	if ps := Compare(cur, base, CompareOptions{}); len(ps) != 0 {
		t.Fatalf("clean compare produced problems: %v", ps)
	}

	// 2x slowdown on a slow-enough cell: soft regression.
	cur.Cells[0].WallNS = 40_000_000
	base.Cells[0].WallNS = 20_000_000
	ps := Compare(cur, base, CompareOptions{Tolerance: 0.20})
	if len(ps) != 1 || ps[0].Kind != "time-regression" || ps[0].Hard {
		t.Fatalf("want one soft time-regression, got %v", ps)
	}

	// Sub-floor cells are never timing problems.
	cur.Cells[0].WallNS = 4_000
	base.Cells[0].WallNS = 1_000
	if ps := Compare(cur, base, CompareOptions{}); len(ps) != 0 {
		t.Fatalf("sub-floor timing flagged: %v", ps)
	}

	// Checksum drift on the same seed: hard failure.
	cur.Cells[1].Checksum = "fnv64:dead"
	ps = Compare(cur, base, CompareOptions{})
	if len(ps) != 1 || ps[0].Kind != "output-mismatch" || !ps[0].Hard {
		t.Fatalf("want one hard output-mismatch, got %v", ps)
	}
	cur.Cells[1].Checksum = base.Cells[1].Checksum

	// Channel-inflated round drift on the same seed: hard failure.
	cur.Cells[1].CongestRounds = base.Cells[1].CongestRounds + 1
	ps = Compare(cur, base, CompareOptions{})
	if len(ps) != 1 || ps[0].Kind != "output-mismatch" || !ps[0].Hard {
		t.Fatalf("want one hard output-mismatch on congest_rounds, got %v", ps)
	}
	cur.Cells[1].CongestRounds = base.Cells[1].CongestRounds

	// Missing cell: hard failure.
	cur.Cells = cur.Cells[:len(cur.Cells)-1]
	ps = Compare(cur, base, CompareOptions{})
	if len(ps) != 1 || ps[0].Kind != "missing-cell" || !ps[0].Hard {
		t.Fatalf("want one hard missing-cell, got %v", ps)
	}

	// Different seeds: outputs legitimately differ, only timing compares.
	cur2 := Run(tinyScenarios(), LocalAlgorithms(), Options{Seed: 6})
	cur2.CalibNS = 1000
	for i := range cur2.Cells {
		cur2.Cells[i].WallNS = base.Cells[i].WallNS
	}
	if ps := Compare(cur2, base, CompareOptions{}); len(ps) != 0 {
		t.Fatalf("cross-seed compare flagged outputs: %v", ps)
	}

	// An errored current cell with no baseline counterpart (new scenario
	// whose kernel is broken) is still a hard failure.
	cur2.Cells = append(cur2.Cells, Cell{
		Scenario: "new-family", Params: "n=1", Algorithm: "broken",
		Error: "kernel exploded",
	})
	ps = Compare(cur2, base, CompareOptions{})
	if len(ps) != 1 || ps[0].Kind != "error" || !ps[0].Hard {
		t.Fatalf("want one hard error for unbaselined broken cell, got %v", ps)
	}
}

func TestShortMatrixShape(t *testing.T) {
	// The acceptance contract: >= 4 families x >= 3 algorithms.
	families := map[string]bool{}
	for _, s := range ShortScenarios() {
		families[s.Family] = true
	}
	if len(families) < 4 {
		t.Fatalf("short matrix has %d families, want >= 4", len(families))
	}
	if len(Algorithms()) < 3 {
		t.Fatalf("matrix has %d algorithms, want >= 3", len(Algorithms()))
	}
}

func TestCalibratePositive(t *testing.T) {
	if c := Calibrate(); c <= 0 {
		t.Fatalf("calibration constant %d", c)
	}
}

// TestDecompositionParCellsMatchSeq pins the contract the -par matrix
// columns exist for: on every scenario, the parallel decomposition and
// enumeration cells must carry exactly the seq cells' full-output
// checksums, triangles, and simulated costs — the CI baseline then keeps
// pinning that equality on real hardware with real worker pools.
// TestServingCellsHotMatchesCold pins the serving matrix's contract:
// on every scenario, the hot (cached) cell must carry exactly the cold
// cell's checksum and triangle count — the HTTP cache is transparent —
// so the CI baseline keeps re-proving it against a live service.
func TestServingCellsHotMatchesCold(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a service per cell")
	}
	rep := Run(ServingScenarios()[:1], ServingAlgorithms(), Options{Seed: 5})
	cells := map[string]Cell{}
	for _, c := range rep.Cells {
		if c.Error != "" {
			t.Fatalf("cell %s errored: %s", c.Key(), c.Error)
		}
		cells[c.Algorithm] = c
	}
	cold := cells["serve-cold"]
	if cold.Checksum == "" {
		t.Fatalf("missing serve-cold cell: %v", cells)
	}
	// serve-hot pins cache transparency; serve-cancel pins that an
	// abandoned 1ms-deadline decompose — whichever way its race lands —
	// never poisons the answers the full-budget triple then computes.
	for _, name := range []string{"serve-hot", "serve-cancel"} {
		c, ok := cells[name]
		if !ok || c.Checksum == "" {
			t.Fatalf("missing %s cell: %v", name, cells)
		}
		if c.Checksum != cold.Checksum || c.Triangles != cold.Triangles {
			t.Fatalf("%s cell diverged from cold:\ncold %+v\n%s %+v", name, cold, name, c)
		}
	}
}

func TestDecompositionParCellsMatchSeq(t *testing.T) {
	rep := Run(DecompositionScenarios()[:2], DecompositionAlgorithms(), Options{Seed: 3})
	byCell := map[string]map[string]Cell{}
	for _, c := range rep.Cells {
		if c.Error != "" {
			t.Fatalf("cell %s errored: %s", c.Key(), c.Error)
		}
		key := c.Scenario + "|" + c.Params
		if byCell[key] == nil {
			byCell[key] = map[string]Cell{}
		}
		byCell[key][c.Algorithm] = c
	}
	for scen, algs := range byCell {
		for _, pair := range [][2]string{
			{"decompose-seq", "decompose-par"},
			{"enumerate-seq", "enumerate-par"},
		} {
			seq, par := algs[pair[0]], algs[pair[1]]
			if seq.Checksum == "" || par.Checksum == "" {
				t.Fatalf("%s: missing %v cells", scen, pair)
			}
			if seq.Checksum != par.Checksum || seq.Triangles != par.Triangles ||
				seq.Rounds != par.Rounds || seq.Messages != par.Messages {
				t.Errorf("%s: %s and %s diverged:\nseq %+v\npar %+v", scen, pair[0], pair[1], seq, par)
			}
		}
	}
}
