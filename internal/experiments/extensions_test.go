package experiments

import "testing"

func TestBandwidthContention(t *testing.T) {
	tab := catalogueTable(t, "contention", 0)
	fair, prio := column(t, tab, "TPOT (fair sharing)"), column(t, tab, "TPOT (EP prioritized)")
	// TPOT under fair sharing must be monotone in KV pressure; the
	// prioritized column must stay flat at the baseline.
	for i := 1; i < len(fair); i++ {
		if fair[i] < fair[i-1] {
			t.Errorf("fair-sharing TPOT should not improve with more KV traffic: %v", fair)
		}
		if prio[i] != prio[0] {
			t.Errorf("prioritized TPOT must be flat: %v", prio)
		}
	}
	last := len(fair) - 1
	if fair[last] < 1.5*prio[last] {
		t.Errorf("heavy contention should inflate TPOT substantially: fair %v, prioritized %v", fair[last], prio[last])
	}
}

func TestOverlapAblationPeaksAtTwo(t *testing.T) {
	tab := catalogueTable(t, "overlap", 0)
	ratios, speedups := column(t, tab, "compute/comm"), column(t, tab, "speedup")
	var peak float64
	for i, s := range speedups {
		if s < 1 {
			t.Errorf("overlap must never lose: compute/comm %v, speedup %v", ratios[i], s)
		}
		if s > peak {
			peak = s
		}
		if ratios[i] == 2 && s < 1.99 {
			t.Errorf("balance point should reach 2x: speedup %v", s)
		}
	}
	if peak > 2+1e-9 {
		t.Errorf("speedup cannot exceed 2x: %v", peak)
	}
}

func TestSDCDetectionCatchesEverything(t *testing.T) {
	tab := sdcDetection(31)
	if value(t, tab, "clean FP8 GEMM verifies", "Value") != true {
		t.Error("clean GEMM must verify")
	}
	caught, injected := num(t, tab, "corruptions detected", "Value"), num(t, tab, "injected corruptions", "Value")
	if caught != injected {
		t.Errorf("detected %v of %v injected faults", caught, injected)
	}
}
