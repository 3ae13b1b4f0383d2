package nibble

import (
	"math"
	"testing"

	"dexpander/internal/gen"
	"dexpander/internal/graph"
)

func TestPaperParamsFormulas(t *testing.T) {
	// Pin the Appendix A formulas on a concrete graph.
	g := gen.Complete(20) // m = 190, vol = 380
	view := graph.WholeGraph(g)
	phi := 0.1
	pr := PaperParams(view, phi)
	m := 190.0
	lnm2 := math.Log(m) + 2
	lnm4 := math.Log(m) + 4
	if want := int(math.Ceil(49 * lnm2 / (phi * phi))); pr.T0 != want {
		t.Errorf("T0 = %d, want %d", pr.T0, want)
	}
	if want := int(math.Ceil(math.Log2(m))); pr.Ell != want {
		t.Errorf("Ell = %d, want %d", pr.Ell, want)
	}
	if want := 5 * phi / (392 * lnm4); math.Abs(pr.Gamma-want) > 1e-15 {
		t.Errorf("Gamma = %v, want %v", pr.Gamma, want)
	}
	if want := phi / (56 * lnm4 * float64(pr.T0)); math.Abs(pr.EpsBase-want) > 1e-18 {
		t.Errorf("EpsBase = %v, want %v", pr.EpsBase, want)
	}
	if want, got := phi*phi*phi/(144*lnm4*lnm4), F(view, phi); math.Abs(got-want) > 1e-18 {
		t.Errorf("F = %v, want %v", got, want)
	}
	if want := 10 * int(math.Ceil(math.Log(380.0))); pr.W != want {
		t.Errorf("W = %d, want %d", pr.W, want)
	}
	if pr.CCut != 276 {
		t.Errorf("CCut = %v, want 276", pr.CCut)
	}
	if pr.Preset != Paper {
		t.Errorf("Preset = %v", pr.Preset)
	}
}

func TestEpsBHalves(t *testing.T) {
	g := gen.Complete(10)
	pr := PaperParams(graph.WholeGraph(g), 0.2)
	for b := 1; b < 5; b++ {
		if math.Abs(pr.EpsB(b)-2*pr.EpsB(b+1)) > 1e-20 {
			t.Fatalf("EpsB(%d) != 2*EpsB(%d)", b, b+1)
		}
	}
	if math.Abs(pr.EpsB(1)-pr.EpsBase/2) > 1e-20 {
		t.Fatalf("EpsB(1) = %v, want EpsBase/2", pr.EpsB(1))
	}
}

func TestPracticalParamsBounded(t *testing.T) {
	g := gen.GNPConnected(200, 0.05, 1)
	view := graph.WholeGraph(g)
	pr := PracticalParams(view, 0.05)
	if pr.T0 > 4000 || pr.T0 < 16 {
		t.Errorf("practical T0 = %d out of clamp", pr.T0)
	}
	if pr.KCap == 0 || pr.SCap == 0 || pr.EmptyStop == 0 {
		t.Error("practical caps not set")
	}
	if pr.Preset != Practical {
		t.Errorf("Preset = %v", pr.Preset)
	}
	// Practical t0 must be radically smaller than paper t0.
	paper := PaperParams(view, 0.05)
	if pr.T0*10 > paper.T0 {
		t.Errorf("practical T0 %d not much below paper %d", pr.T0, paper.T0)
	}
}

func TestFAndFInvRoundTrip(t *testing.T) {
	g := gen.Complete(12)
	view := graph.WholeGraph(g)
	for _, phi := range []float64{0.01, 0.1, 0.3} {
		if got := FInv(view, F(view, phi)); math.Abs(got-phi) > 1e-12 {
			t.Errorf("FInv(F(%v)) = %v", phi, got)
		}
	}
}

func TestTransferHMonotoneAndInverse(t *testing.T) {
	g := gen.Complete(12)
	view := graph.WholeGraph(g)
	for _, preset := range []Preset{Paper, Practical} {
		prev := 0.0
		for _, theta := range []float64{1e-6, 1e-4, 1e-2} {
			h := TransferH(view, theta, preset)
			if h <= prev {
				t.Errorf("preset %v: H not increasing at %v", preset, theta)
			}
			prev = h
			if got := TransferHInv(view, h, preset); math.Abs(got-theta) > theta*1e-9 {
				t.Errorf("preset %v: HInv(H(%v)) = %v", preset, theta, got)
			}
		}
	}
}

func TestTransferHShapePaper(t *testing.T) {
	// Paper preset: h(theta) ~ theta^{1/3}, so h(8x)/h(x) = 2.
	g := gen.Complete(12)
	view := graph.WholeGraph(g)
	r := TransferH(view, 8e-6, Paper) / TransferH(view, 1e-6, Paper)
	if math.Abs(r-2) > 1e-9 {
		t.Errorf("paper H(8x)/H(x) = %v, want 2 (cube root shape)", r)
	}
	// Practical preset is linear: ratio 8.
	r = TransferH(view, 8e-6, Practical) / TransferH(view, 1e-6, Practical)
	if math.Abs(r-8) > 1e-9 {
		t.Errorf("practical H(8x)/H(x) = %v, want 8", r)
	}
}

func TestInstanceCountAtLeastOne(t *testing.T) {
	g := gen.Dumbbell(6, 1, 1)
	view := graph.WholeGraph(g)
	for _, pr := range []Params{PaperParams(view, 0.1), PracticalParams(view, 0.1)} {
		if k := pr.InstanceCount(view); k < 1 {
			t.Errorf("InstanceCount = %d", k)
		}
	}
}

func TestInstanceCountScalesWithVolume(t *testing.T) {
	// Craft params with small T0 so the paper formula yields k > 1 on a
	// large graph.
	g := gen.Complete(60)
	view := graph.WholeGraph(g)
	pr := PaperParams(view, 0.3)
	pr.T0 = 1
	pr.Ell = 1
	pr.Phi = 3 // formula probe only: shrink the denominator below Vol
	if k := pr.InstanceCount(view); k < 2 {
		t.Errorf("InstanceCount = %d, want > 1 with tiny T0", k)
	}
	// k grows linearly with volume: doubling the graph doubles k.
	big := graph.WholeGraph(gen.Complete(85)) // ~2x volume
	if kb := pr.InstanceCount(big); kb <= pr.InstanceCount(view) {
		t.Errorf("InstanceCount did not grow with volume: %d vs %d",
			kb, pr.InstanceCount(view))
	}
}

func TestIterationsCapped(t *testing.T) {
	g := gen.Dumbbell(6, 1, 1)
	view := graph.WholeGraph(g)
	pr := PracticalParams(view, 0.1)
	if s := pr.Iterations(view); s != pr.SCap {
		t.Errorf("practical Iterations = %d, want SCap=%d", s, pr.SCap)
	}
	paper := PaperParams(view, 0.1)
	if s := paper.Iterations(view); s < 1000 {
		t.Errorf("paper Iterations = %d, suspiciously small", s)
	}
}

// TestParamsStarred checks each relaxed condition (C.1*)–(C.3*) alone,
// with its boundary inclusive.
func TestParamsStarred(t *testing.T) {
	view := graph.WholeGraph(gen.Dumbbell(6, 1, 1))
	pr := PracticalParams(view, 0.1)
	total := float64(view.TotalVol())
	half := total / 2
	cases := []struct {
		name                string
		phi, rho, vol, minV float64
		want                bool
	}{
		{"balanced sparse prefix", 1 / half, 0.1, half, 1, true},
		{"conductance at 12 Phi", 12 * pr.Phi, 0.1, half, 1, true},
		{"conductance above 12 Phi (C.1*)", 12*pr.Phi + 1e-9, 0.1, half, 1, false},
		{"mass at Gamma / vol", 1 / half, pr.Gamma / half, half, 1, true},
		{"mass below Gamma / vol (C.2*)", 1 / half, pr.Gamma / half / 4, half, 1, false},
		{"volume at minVol", 0, 1, 4, 4, true},
		{"volume below minVol (C.3*)", 0, 1, 0.5, 4, false},
		{"volume at 11/12 of the total", 0, 1, 11.0 / 12.0 * total, 1, true},
		{"volume above 11/12 of the total (C.3*)", 0, 1, 0.95 * total, 1, false},
	}
	for _, tc := range cases {
		if got := pr.Starred(tc.phi, tc.rho, tc.vol, tc.minV, total); got != tc.want {
			t.Errorf("%s: Starred(%v, %v, %v, %v, %v) = %v, want %v",
				tc.name, tc.phi, tc.rho, tc.vol, tc.minV, total, got, tc.want)
		}
	}
}
