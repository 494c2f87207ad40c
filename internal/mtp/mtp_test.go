package mtp

import (
	"math"
	"math/rand"
	"testing"
)

func TestV3SpeedupIs1Point8(t *testing.T) {
	// §2.3.3: one MTP module at 80-90% acceptance gives ~1.8x TPS.
	s := V3Config().ExpectedSpeedup()
	if math.Abs(s-1.8) > 0.05 {
		t.Errorf("expected ~1.8x speedup, got %v", s)
	}
}

func TestAcceptanceRangeBrackets(t *testing.T) {
	lo := V3Config()
	lo.Acceptance = 0.80
	hi := V3Config()
	hi.Acceptance = 0.90
	if lo.ExpectedSpeedup() < 1.7 || hi.ExpectedSpeedup() > 1.95 {
		t.Errorf("80-90%% acceptance should span ~1.7-1.9x: %v, %v",
			lo.ExpectedSpeedup(), hi.ExpectedSpeedup())
	}
}

func TestSimulateMatchesAnalytic(t *testing.T) {
	cfg := V3Config()
	rng := rand.New(rand.NewSource(51))
	res, err := Simulate(cfg, 200000, rng)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Speedup-cfg.ExpectedSpeedup()) > 0.01 {
		t.Errorf("simulated speedup %v vs analytic %v", res.Speedup, cfg.ExpectedSpeedup())
	}
	if math.Abs(res.TokensPerStep-cfg.ExpectedTokensPerStep()) > 0.01 {
		t.Errorf("simulated tokens/step %v vs analytic %v", res.TokensPerStep, cfg.ExpectedTokensPerStep())
	}
}

func TestZeroModulesIsBaseline(t *testing.T) {
	cfg := Config{Modules: 0, Acceptance: 0.9}
	if s := cfg.ExpectedSpeedup(); s != 1 {
		t.Errorf("no modules must give exactly 1.0x, got %v", s)
	}
}

func TestDeeperChainsGeometric(t *testing.T) {
	cfg := Config{Modules: 3, Acceptance: 0.5}
	want := 1 + 0.5 + 0.25 + 0.125
	if got := cfg.ExpectedTokensPerStep(); math.Abs(got-want) > 1e-12 {
		t.Errorf("tokens/step = %v, want %v", got, want)
	}
}

func TestDiminishingReturnsWithDepth(t *testing.T) {
	// The extension sweep: with realistic acceptance, marginal gain per
	// extra module shrinks.
	pts := Sweep([]int{1, 2, 3, 4}, []float64{0.85}, 1.0/61, 0.03)
	if len(pts) != 4 {
		t.Fatalf("expected 4 points, got %d", len(pts))
	}
	gain1 := pts[1].Speedup - pts[0].Speedup
	gain3 := pts[3].Speedup - pts[2].Speedup
	if gain3 >= gain1 {
		t.Errorf("marginal gains should shrink: %v vs %v", gain1, gain3)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Speedup <= pts[i-1].Speedup {
			t.Errorf("speedup should still grow with depth at 85%%: %+v", pts)
		}
	}
}

func TestLowAcceptanceCanHurt(t *testing.T) {
	// With terrible acceptance and nonzero costs, deep chains lose.
	cfg := Config{Modules: 4, Acceptance: 0.05, DraftCost: 0.05, VerifyOverhead: 0.05}
	if cfg.ExpectedSpeedup() >= 1 {
		t.Errorf("bad acceptance should not speed up: %v", cfg.ExpectedSpeedup())
	}
}

func TestValidation(t *testing.T) {
	bad := Config{Modules: -1}
	if err := bad.Validate(); err == nil {
		t.Error("negative modules must fail")
	}
	bad = Config{Modules: 1, Acceptance: 1.5}
	if err := bad.Validate(); err == nil {
		t.Error("acceptance > 1 must fail")
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, bad := range []Config{
		{Modules: 1, Acceptance: nan},
		{Modules: 1, Acceptance: 0.8, DraftCost: nan},
		{Modules: 1, Acceptance: 0.8, DraftCost: -0.1},
		{Modules: 1, Acceptance: 0.8, DraftCost: inf},
		{Modules: 1, Acceptance: 0.8, VerifyOverhead: nan},
		{Modules: 1, Acceptance: 0.8, VerifyOverhead: -0.1},
		{Modules: 1, Acceptance: 0.8, VerifyOverhead: inf},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("%+v must fail", bad)
		}
	}
	rng := rand.New(rand.NewSource(1))
	if _, err := Simulate(V3Config(), 0, rng); err == nil {
		t.Error("zero tokens must fail")
	}
}

func TestSimulateDeterministicPerSeed(t *testing.T) {
	a, _ := Simulate(V3Config(), 10000, rand.New(rand.NewSource(9)))
	b, _ := Simulate(V3Config(), 10000, rand.New(rand.NewSource(9)))
	if a.Steps != b.Steps {
		t.Error("same seed must give identical trajectories")
	}
}

func TestBatchAmplification(t *testing.T) {
	res, _ := Simulate(V3Config(), 1000, rand.New(rand.NewSource(3)))
	if res.BatchAmplification != 2 {
		t.Errorf("one MTP module doubles the verification batch, got %v", res.BatchAmplification)
	}
}
