package inference

import (
	"math"
	"testing"

	"dsv3/internal/units"
)

func TestContentionFairSharing(t *testing.T) {
	cc := ContentionConfig{
		PCIeBandwidth:  64 * units.GB,
		KVTransferRate: 40 * units.GB,
		EPDemand:       50 * units.GB,
	}
	eff, err := cc.EffectiveEPBandwidth(false)
	if err != nil {
		t.Fatal(err)
	}
	// 90 GB/s demanded over 64: EP gets 50/90*64 ≈ 35.6 GB/s.
	want := 50.0 / 90 * 64 * units.GB
	if math.Abs(eff-want) > 1e-6*want {
		t.Errorf("fair-shared EP bandwidth = %v, want %v", eff, want)
	}
}

func TestContentionPrioritized(t *testing.T) {
	cc := ContentionConfig{
		PCIeBandwidth:  64 * units.GB,
		KVTransferRate: 40 * units.GB,
		EPDemand:       50 * units.GB,
	}
	eff, err := cc.EffectiveEPBandwidth(true)
	if err != nil {
		t.Fatal(err)
	}
	if eff != 50*units.GB {
		t.Errorf("prioritized EP should keep its demand: %v", eff)
	}
}

func TestContentionNoOversubscription(t *testing.T) {
	cc := ContentionConfig{
		PCIeBandwidth:  64 * units.GB,
		KVTransferRate: 5 * units.GB,
		EPDemand:       50 * units.GB,
	}
	eff, _ := cc.EffectiveEPBandwidth(false)
	if eff != 50*units.GB {
		t.Errorf("under-subscribed link must not throttle EP: %v", eff)
	}
}

func TestContentionValidation(t *testing.T) {
	if _, err := (ContentionConfig{}).EffectiveEPBandwidth(false); err == nil {
		t.Error("zero config must fail")
	}
}

// §4.5.1's latency-spike scenario: heavy KV fetches inflate TPOT;
// §4.5.2's traffic prioritization restores it.
func TestTPOTUnderContention(t *testing.T) {
	cfg := V3EPConfig()
	cc := ContentionConfig{
		PCIeBandwidth:  64 * units.GB,
		KVTransferRate: 40 * units.GB,
		EPDemand:       50 * units.GB,
	}
	base, _ := cfg.Analyze(50 * units.GB)
	contended, err := cfg.TPOTUnderContention(50*units.GB, cc, false)
	if err != nil {
		t.Fatal(err)
	}
	prioritized, err := cfg.TPOTUnderContention(50*units.GB, cc, true)
	if err != nil {
		t.Fatal(err)
	}
	if contended.TPOT <= base.TPOT {
		t.Error("contention must inflate TPOT")
	}
	if contended.TPOT < 1.3*base.TPOT {
		t.Errorf("40 GB/s of KV traffic should inflate TPOT substantially: %v vs %v", contended.TPOT, base.TPOT)
	}
	if prioritized.TPOT != base.TPOT {
		t.Errorf("prioritization should restore the baseline: %v vs %v", prioritized.TPOT, base.TPOT)
	}
}

// §2.3.1 overlap ablation.
func TestAnalyzeOverlap(t *testing.T) {
	cfg := V3EPConfig()
	comm := cfg.CommTimePerStep(50 * units.GB)

	// Balance point: compute/2 == comm gives the maximal 2x win.
	r, err := cfg.AnalyzeOverlap(50*units.GB, 2*comm)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.SpeedupFactor-2) > 1e-9 {
		t.Errorf("balanced overlap should be exactly 2x, got %v", r.SpeedupFactor)
	}

	// Comm-dominated: speedup tends to (2c)/(2c) + compute share.
	r, _ = cfg.AnalyzeOverlap(50*units.GB, 0.1*comm)
	if r.SpeedupFactor < 1 || r.SpeedupFactor > 1.2 {
		t.Errorf("comm-dominated speedup should be modest: %v", r.SpeedupFactor)
	}

	// Compute-dominated: communication fully hidden; speedup toward
	// (compute+2comm)/compute.
	r, _ = cfg.AnalyzeOverlap(50*units.GB, 20*comm)
	want := (20*comm + 2*comm) / (20 * comm)
	if math.Abs(r.SpeedupFactor-want) > 1e-9 {
		t.Errorf("compute-dominated speedup = %v, want %v", r.SpeedupFactor, want)
	}

	// Overlap never loses.
	for _, mult := range []float64{0, 0.5, 1, 2, 5, 50} {
		r, err := cfg.AnalyzeOverlap(50*units.GB, mult*comm)
		if err != nil {
			t.Fatal(err)
		}
		if r.SpeedupFactor < 1-1e-12 {
			t.Errorf("overlap must never lose: compute=%v*comm gives %v", mult, r.SpeedupFactor)
		}
	}
}

func TestAnalyzeOverlapValidation(t *testing.T) {
	if _, err := V3EPConfig().AnalyzeOverlap(0, 1); err == nil {
		t.Error("zero bandwidth must fail")
	}
	if _, err := V3EPConfig().AnalyzeOverlap(1, -1); err == nil {
		t.Error("negative compute must fail")
	}
	nan := math.NaN()
	if _, err := V3EPConfig().AnalyzeOverlap(nan, 1); err == nil {
		t.Error("NaN bandwidth must fail")
	}
	if _, err := V3EPConfig().AnalyzeOverlap(1, nan); err == nil {
		t.Error("NaN compute must fail")
	}
	if _, err := V3EPConfig().AnalyzeOverlap(1, math.Inf(1)); err == nil {
		t.Error("infinite compute must fail")
	}
}
