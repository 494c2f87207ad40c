package trainsim

import (
	"math"
	"testing"

	"dsv3/internal/model"
	"dsv3/internal/pipeline"
)

func approx(t *testing.T, name string, got, want, relTol float64) {
	t.Helper()
	if math.Abs(got-want) > relTol*math.Abs(want) {
		t.Errorf("%s = %v, want %v (±%.1f%%)", name, got, want, relTol*100)
	}
}

// Table 4 (MPFT column): the production metrics must reproduce within
// ~1-2%.
func TestTable4Reproduction(t *testing.T) {
	m, err := V3Config().Run()
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "time/step", m.TimePerStep, 19.926, 0.01)
	approx(t, "tokens/day", m.TokensPerDay, 272.80e9, 0.01)
	approx(t, "1F", m.Phases.F1, 1.13, 0.01)
	approx(t, "1F1B", m.Phases.F1B1, 13.95, 0.01)
	approx(t, "1B", m.Phases.B1, 1.99, 0.01)
	approx(t, "1W", m.Phases.W1, 0.48, 0.01)
	approx(t, "bubble", m.Phases.Bubble, 2.06, 0.02)
	approx(t, "TFLOPS (non-causal)", m.TFLOPSNonCausal, 432e12, 0.01)
	approx(t, "TFLOPS (causal)", m.TFLOPSCausal, 385e12, 0.01)
	approx(t, "MFU (non-causal)", m.MFUNonCausal, 0.4373, 0.01)
	approx(t, "MFU (causal)", m.MFUCausal, 0.3894, 0.01)
}

// The MPFT vs MRFT comparison: identical overlapped communication gives
// identical metrics — the fabric does not change the step time. The
// paper's two columns differ by <0.2%, within measurement noise.
func TestMPFTvsMRFTParity(t *testing.T) {
	a, err := V3Config().Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := V3Config().Run() // same overlapped comm on either fabric
	if err != nil {
		t.Fatal(err)
	}
	if a.TimePerStep != b.TimePerStep {
		t.Error("identical configs must give identical step times")
	}
}

func TestExposedCommSlowsStep(t *testing.T) {
	cfg := V3Config()
	base, _ := cfg.Run()
	cfg.UnoverlappedCommPerMB = 0.01
	slow, err := cfg.Run()
	if err != nil {
		t.Fatal(err)
	}
	if slow.TimePerStep <= base.TimePerStep {
		t.Error("exposed communication must slow the step")
	}
	if slow.MFUCausal >= base.MFUCausal {
		t.Error("exposed communication must cost MFU")
	}
}

func TestDualPipeBubbleBeats1F1B(t *testing.T) {
	// The schedule-level claim (§4.2): DualPipe reduces pipeline
	// bubbles. The production DualPipe bubble (2.06 s) must be well
	// below 1F1B's on the same costs (the ideal 1F1B already idles
	// (PP-1)(F+B) ≈ 3.8 s per step). End-to-end step times are not
	// directly comparable because the calibrated DualPipe timeline
	// carries measured production overheads while the 1F1B event sim
	// is ideal.
	cfg := V3Config()
	dp, err := cfg.Run()
	if err != nil {
		t.Fatal(err)
	}
	costs, err := cfg.Costs()
	if err != nil {
		t.Fatal(err)
	}
	ofb, err := pipeline.Simulate(pipeline.OneFOneB, cfg.PPStages, cfg.Microbatches, costs)
	if err != nil {
		t.Fatal(err)
	}
	if dp.Phases.Bubble >= ofb.Phases.Bubble {
		t.Errorf("DualPipe bubble (%v) must beat 1F1B's (%v)", dp.Phases.Bubble, ofb.Phases.Bubble)
	}
	// Ideal-vs-ideal, DualPipe wins the makespan too: the overhead-free
	// DualPipe bound is per-stage work plus (PP/2-1)·(F&B + B - 3W).
	m, p := float64(cfg.Microbatches), float64(cfg.PPStages)
	ideal := m*(costs.F+costs.B+costs.W) + math.Max(0, (p/2-1)*(costs.F+2*costs.B-3*costs.W))
	if ideal >= ofb.Makespan {
		t.Errorf("ideal DualPipe (%v) must beat ideal 1F1B (%v)", ideal, ofb.Makespan)
	}
}

func TestValidation(t *testing.T) {
	cfg := V3Config()
	cfg.GPUs = 2047
	if err := cfg.Validate(); err == nil {
		t.Error("PPxDP != GPUs must fail")
	}
	cfg = V3Config()
	cfg.Microbatches = 7 // 15360/128 = 120 not divisible by 7
	if err := cfg.Validate(); err == nil {
		t.Error("non-divisible microbatches must fail")
	}
	cfg = V3Config()
	cfg.KernelEfficiency = 1.5
	if err := cfg.Validate(); err == nil {
		t.Error("efficiency > 1 must fail")
	}
	cfg = V3Config()
	cfg.Model = nil
	if _, err := cfg.Run(); err == nil {
		t.Error("nil model must fail")
	}
}

func TestCostsScaleWithModel(t *testing.T) {
	small := V3Config()
	small.Model = model.DeepSeekV2()
	cSmall, err := small.Costs()
	if err != nil {
		t.Fatal(err)
	}
	cBig, _ := V3Config().Costs()
	if cSmall.F >= cBig.F {
		t.Error("V2 microbatches must be cheaper than V3's")
	}
}

func TestKernelEfficiencyMonotone(t *testing.T) {
	fast := V3Config()
	fast.KernelEfficiency = 0.6
	a, _ := fast.Run()
	b, _ := V3Config().Run()
	if a.TimePerStep >= b.TimePerStep {
		t.Error("higher kernel efficiency must shorten the step")
	}
}
