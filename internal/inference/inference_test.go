package inference

import (
	"math"
	"testing"

	"dsv3/internal/units"
)

// §2.3.2: the paper's own arithmetic must reproduce to the digit.
func TestPaperIBNumbers(t *testing.T) {
	cfg := V3EPConfig()
	a, err := cfg.Analyze(50 * units.GB)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.CommTime-120.96*units.Microsecond) > 1e-9 {
		t.Errorf("comm time = %v, want 120.96us", units.FormatSeconds(a.CommTime))
	}
	if math.Abs(a.TimePerLayer-241.92*units.Microsecond) > 1e-9 {
		t.Errorf("time/layer = %v, want 241.92us", units.FormatSeconds(a.TimePerLayer))
	}
	if math.Abs(a.TPOT-14.75712*units.Millisecond) > 1e-6 {
		t.Errorf("TPOT = %v, want 14.76ms", units.FormatSeconds(a.TPOT))
	}
	if math.Abs(a.TPS-67.76) > 0.1 {
		t.Errorf("TPS = %v, want ~67", a.TPS)
	}
}

func TestPaperNVL72Numbers(t *testing.T) {
	cfg := V3EPConfig()
	a, err := cfg.Analyze(900 * units.GB)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.CommTime-6.72*units.Microsecond) > 1e-9 {
		t.Errorf("comm time = %v, want 6.72us", units.FormatSeconds(a.CommTime))
	}
	if math.Abs(a.TPOT-0.81984*units.Millisecond) > 1e-7 {
		t.Errorf("TPOT = %v, want 0.82ms", units.FormatSeconds(a.TPOT))
	}
	if a.TPS < 1190 || a.TPS > 1230 {
		t.Errorf("TPS = %v, want ~1200", a.TPS)
	}
}

func TestCommBytes(t *testing.T) {
	cfg := V3EPConfig()
	// (1+2) bytes × 32 tokens × 9 copies × 7000 (the paper's "7K").
	want := 3.0 * 32 * 9 * 7000
	if got := cfg.CommBytesPerStep(); got != want {
		t.Errorf("comm bytes = %v, want %v", got, want)
	}
}

func TestSweepMonotone(t *testing.T) {
	cfg := V3EPConfig()
	var pts []Analysis
	for _, bw := range []units.BytesPerSecond{40 * units.GB, 50 * units.GB, 400 * units.GB, 900 * units.GB} {
		a, err := cfg.Analyze(bw)
		if err != nil {
			t.Fatal(err)
		}
		pts = append(pts, a)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].TPS <= pts[i-1].TPS {
			t.Errorf("TPS must rise with bandwidth: %+v", pts)
		}
	}
	// 18x bandwidth => exactly 18x TPS in the latency-free model.
	ratio := pts[3].TPS / pts[1].TPS
	if math.Abs(ratio-18) > 1e-9 {
		t.Errorf("TPS ratio = %v, want 18", ratio)
	}
}

func TestAnalyzeWithCompute(t *testing.T) {
	cfg := V3EPConfig()
	free, _ := cfg.Analyze(50 * units.GB)
	layers := float64(cfg.Layers)
	withCompute := func(perLayer units.Seconds) Legs {
		return Legs{Layers: layers, Comm: free.CommTime, GEMV: perLayer * layers}
	}
	// Compute below comm time: fully hidden by overlap.
	hidden := withCompute(100 * units.Microsecond)
	if hidden.Overlapped() != free.TPOT {
		t.Errorf("sub-comm compute should be hidden: %v vs %v", hidden.Overlapped(), free.TPOT)
	}
	// Compute above comm time: compute-bound.
	bound := withCompute(200 * units.Microsecond)
	if math.Abs(2*bound.Phase()-400*units.Microsecond) > 1e-12 {
		t.Errorf("compute-bound layer time = %v, want 400us", 2*bound.Phase())
	}
}

func TestValidation(t *testing.T) {
	bad := V3EPConfig()
	bad.Layers = 0
	if _, err := bad.Analyze(50 * units.GB); err == nil {
		t.Error("zero layers must fail")
	}
	if _, err := V3EPConfig().Analyze(0); err == nil {
		t.Error("zero bandwidth must fail")
	}
	if _, err := V3EPConfig().Analyze(-1); err == nil {
		t.Error("negative bandwidth must fail")
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, bw := range []units.BytesPerSecond{nan, inf} {
		if _, err := V3EPConfig().Analyze(bw); err == nil {
			t.Errorf("bandwidth %v must fail", bw)
		}
	}
	// Every ordered comparison with NaN is false, so each float field
	// needs its own finiteness check.
	for name, mutate := range map[string]func(*EPConfig){
		"HiddenBytes=NaN":          func(c *EPConfig) { c.HiddenBytes = nan },
		"HiddenBytes=Inf":          func(c *EPConfig) { c.HiddenBytes = inf },
		"DispatchBytesPerElem=-5":  func(c *EPConfig) { c.DispatchBytesPerElem = -5 },
		"DispatchBytesPerElem=NaN": func(c *EPConfig) { c.DispatchBytesPerElem = nan },
		"CombineBytesPerElem=-1":   func(c *EPConfig) { c.CombineBytesPerElem = -1 },
		"CombineBytesPerElem=Inf":  func(c *EPConfig) { c.CombineBytesPerElem = inf },
	} {
		c := V3EPConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: want validation error", name)
		}
	}
}
