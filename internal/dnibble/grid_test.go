package dnibble

import (
	"testing"

	"dexpander/internal/congest"
	"dexpander/internal/gen"
	"dexpander/internal/graph"
	"dexpander/internal/nibble"
)

func TestGeomGrid(t *testing.T) {
	cases := []struct {
		t0   int
		want []int
	}{
		{1, []int{1}},
		{2, []int{1, 2}},
		{5, []int{1, 2, 4, 5}},
		{8, []int{1, 2, 4, 8}},
		{100, []int{1, 2, 4, 8, 16, 32, 64, 100}},
	}
	for _, tc := range cases {
		got := geomGrid(tc.t0)
		if len(got) != len(tc.want) {
			t.Fatalf("geomGrid(%d) = %v, want %v", tc.t0, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("geomGrid(%d) = %v, want %v", tc.t0, got, tc.want)
			}
		}
	}
}

func TestThresholdGrid(t *testing.T) {
	ths := thresholdGrid(0.001, 1000)
	if len(ths) == 0 || ths[0] != 1.0 {
		t.Fatalf("grid = %v", ths)
	}
	for i := 1; i < len(ths); i++ {
		if ths[i] != ths[i-1]/2 {
			t.Fatalf("grid not geometric at %d: %v", i, ths)
		}
	}
	// Reaches down to gamma / totalVol.
	last := ths[len(ths)-1]
	if last > 0.001/1000*2 {
		t.Fatalf("grid bottom %v above 2*gamma/vol", last)
	}
	// The 62-entry cap keeps membership bitmaps in one word.
	if len(thresholdGrid(1e-30, 1e30)) > 62 {
		t.Fatal("grid exceeds the bitmap cap")
	}
}

func TestApproximateNibbleStatsAccounting(t *testing.T) {
	g := gen.Dumbbell(6, 1, 5)
	view := graph.WholeGraph(g)
	pr := nibble.PracticalParams(view, 0.1)
	_, stats, err := approximateNibble(congest.NewTopology(view), view, pr, 0, 4, &walkScratch{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Messages == 0 || stats.Words == 0 {
		t.Fatalf("no traffic recorded: %+v", stats)
	}
	if stats.CongestRounds != stats.Rounds {
		t.Fatalf("unexpected channel inflation: %+v", stats)
	}
}

func TestDistPartitionDeterministic(t *testing.T) {
	g := gen.Dumbbell(8, 1, 1)
	view := graph.WholeGraph(g)
	pr := nibble.PracticalParams(view, 0.05)
	a, sa, err := Partition(view, view, pr, 33)
	if err != nil {
		t.Fatal(err)
	}
	b, sb, err := Partition(view, view, pr, 33)
	if err != nil {
		t.Fatal(err)
	}
	if !a.C.Equal(b.C) || sa.Rounds != sb.Rounds {
		t.Fatal("distributed partition not deterministic in seed")
	}
}
