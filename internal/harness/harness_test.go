package harness

import (
	"math"
	"slices"
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		Title:   "demo",
		Headers: []string{"a", "longheader"},
	}
	tbl.AddRow(1, 2.5)
	tbl.AddRow("xyz", 0.00001)
	tbl.AddNote("note %d", 7)
	s := tbl.String()
	for _, want := range []string{"demo", "longheader", "xyz", "2.50", "1.00e-05", "* note 7"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered table missing %q:\n%s", want, s)
		}
	}
	// Metrics keys the last row's numeric cells by header.
	if got := tbl.Metrics(); len(got) != 1 || got["longheader"] != 0.00001 {
		t.Errorf("metrics = %v, want map[longheader:1e-05]", got)
	}
}

func TestFitPowerLawExact(t *testing.T) {
	xs := []float64{1, 2, 4, 8, 16}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 * math.Pow(x, 1.5)
	}
	e, r2 := FitPowerLaw(xs, ys)
	if math.Abs(e-1.5) > 1e-9 || r2 < 0.999 {
		t.Fatalf("fit = (%v, %v), want (1.5, ~1)", e, r2)
	}
}

func TestFitPowerLawDegenerate(t *testing.T) {
	if e, r2 := FitPowerLaw([]float64{1}, []float64{2}); e != 0 || r2 != 0 {
		t.Fatal("single point should yield zero fit")
	}
	if e, _ := FitPowerLaw([]float64{0, -1}, []float64{1, 2}); e != 0 {
		t.Fatal("invalid points should be skipped")
	}
	// Constant y: exponent 0.
	e, _ := FitPowerLaw([]float64{1, 2, 4}, []float64{5, 5, 5})
	if math.Abs(e) > 1e-9 {
		t.Fatalf("constant fit exponent = %v", e)
	}
}

// experimentContracts gives, for each listed experiment, the rows it
// yields at Small scale, whether its table states a contract (and so
// carries an ok column), and whether it is too heavy for -short.
var experimentContracts = map[string]struct {
	rows            int
	contract, heavy bool
}{
	"E1":  {rows: 2, contract: true, heavy: true},
	"E1b": {rows: 4, heavy: true},
	"E2":  {rows: 2, contract: true},
	"E3":  {rows: 2, contract: true},
	"E3b": {rows: 3, contract: true},
	"E4":  {rows: 2, contract: true},
	"E4b": {rows: 1, heavy: true},
	"E5":  {rows: 3, contract: true},
	"E6":  {rows: 4},
	"E8":  {rows: 2, contract: true},
	"E9":  {rows: 4, contract: true, heavy: true},
	"E10": {rows: 3, contract: true},
	"E11": {rows: 2},
}

// checkExperiment is the contract test: it runs the listed experiment
// once at Small scale and requires its expected row count, an ok column
// exactly when the table states a contract, and every ok cell true.
func checkExperiment(t *testing.T, name string) {
	t.Helper()
	w := experimentContracts[name]
	i := slices.IndexFunc(Experiments, func(e Experiment) bool { return e.Name == name })
	if i < 0 || w.rows == 0 {
		t.Fatalf("experiment %s is not listed or has no contract entry", name)
	}
	if w.heavy && testing.Short() {
		t.Skip("distributed or phase-structure experiment")
	}
	tbl, err := Experiments[i].Run(Small, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Title == "" || len(tbl.Rows) != w.rows {
		t.Fatalf("title %q, %d rows, want %d", tbl.Title, len(tbl.Rows), w.rows)
	}
	col := slices.Index(tbl.Headers, "ok")
	if (col >= 0) != w.contract {
		t.Fatalf("ok column at %d, want one: %v", col, w.contract)
	}
	for r, row := range tbl.Rows {
		if col >= 0 && row[col] != true {
			t.Fatalf("row %d failed its contract:\n%s", r, tbl)
		}
	}
}

// TestExperimentList keeps Experiments and experimentContracts in step.
// Each listed experiment also has a one-line test below; the per-name
// tests keep the suite's test IDs stable across changes to the list.
func TestExperimentList(t *testing.T) {
	for _, e := range Experiments {
		if _, ok := experimentContracts[e.Name]; !ok {
			t.Errorf("experiment %s has no contract entry", e.Name)
		}
	}
	if len(Experiments) != len(experimentContracts) {
		t.Errorf("%d experiments listed, %d contract entries", len(Experiments), len(experimentContracts))
	}
}

func TestE1Small(t *testing.T)  { checkExperiment(t, "E1") }
func TestE1KSmall(t *testing.T) { checkExperiment(t, "E1b") }
func TestE2Small(t *testing.T)  { checkExperiment(t, "E2") }
func TestE3Small(t *testing.T)  { checkExperiment(t, "E3") }
func TestE3bSmall(t *testing.T) { checkExperiment(t, "E3b") }
func TestE4Small(t *testing.T)  { checkExperiment(t, "E4") }
func TestE4bSmall(t *testing.T) { checkExperiment(t, "E4b") }
func TestE5Small(t *testing.T)  { checkExperiment(t, "E5") }
func TestE6Small(t *testing.T)  { checkExperiment(t, "E6") }
func TestE8Small(t *testing.T)  { checkExperiment(t, "E8") }
func TestE9Small(t *testing.T)  { checkExperiment(t, "E9") }
func TestE10Small(t *testing.T) { checkExperiment(t, "E10") }
func TestE11Small(t *testing.T) { checkExperiment(t, "E11") }

// checkTriangleComparison runs TriangleComparison on sizes and requires
// one row per size and every row's ok cell true: ours, DLP and naive
// all equal BruteForce.
func checkTriangleComparison(t *testing.T, sizes []int, seed uint64) {
	t.Helper()
	tbl, err := TriangleComparison(sizes, seed)
	if err != nil {
		t.Fatal(err)
	}
	col := slices.Index(tbl.Headers, "ok")
	if col < 0 || len(tbl.Rows) != len(sizes) {
		t.Fatalf("ok column at %d, %d rows, want %d:\n%s", col, len(tbl.Rows), len(sizes), tbl)
	}
	for r, row := range tbl.Rows {
		if row[col] != true {
			t.Fatalf("row %d: enumerations disagree with BruteForce:\n%s", r, tbl)
		}
	}
}

// TestE7Small checks the three-model agreement on the sizes and seed the
// former standalone model-comparison table used; E2 now carries it.
func TestE7Small(t *testing.T) { checkTriangleComparison(t, []int{16, 32}, 14) }

// TestTriangleCustom checks the caller-sized comparison behind
// trianglebench -sizes.
func TestTriangleCustom(t *testing.T) { checkTriangleComparison(t, []int{12, 18}, 3) }
