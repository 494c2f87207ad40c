package experiments

import (
	"strings"
	"testing"
)

func TestBandwidthContention(t *testing.T) {
	rows, err := BandwidthContention()
	if err != nil {
		t.Fatal(err)
	}
	// TPOT under fair sharing must be monotone in KV pressure; the
	// prioritized column must stay flat at the baseline.
	for i := 1; i < len(rows); i++ {
		if rows[i].TPOTFairSharing < rows[i-1].TPOTFairSharing {
			t.Errorf("fair-sharing TPOT should not improve with more KV traffic: %+v", rows)
		}
		if rows[i].TPOTPrioritized != rows[0].TPOTPrioritized {
			t.Errorf("prioritized TPOT must be flat: %+v", rows)
		}
	}
	last := rows[len(rows)-1]
	if last.TPOTFairSharing < 1.5*last.TPOTPrioritized {
		t.Errorf("heavy contention should inflate TPOT substantially: %+v", last)
	}
}

func TestOverlapAblationPeaksAtTwo(t *testing.T) {
	rows, err := OverlapAblation()
	if err != nil {
		t.Fatal(err)
	}
	var peak float64
	for _, r := range rows {
		if r.Speedup < 1 {
			t.Errorf("overlap must never lose: %+v", r)
		}
		if r.Speedup > peak {
			peak = r.Speedup
		}
		if r.ComputeCommRatio == 2 && r.Speedup < 1.99 {
			t.Errorf("balance point should reach 2x: %+v", r)
		}
	}
	if peak > 2+1e-9 {
		t.Errorf("speedup cannot exceed 2x: %v", peak)
	}
}

func TestSDCDetectionCatchesEverything(t *testing.T) {
	r, err := SDCDetection(31)
	if err != nil {
		t.Fatal(err)
	}
	if !r.CleanVerified {
		t.Error("clean GEMM must verify")
	}
	if r.FaultsCaught != r.FaultsInjected {
		t.Errorf("detected %d of %d injected faults", r.FaultsCaught, r.FaultsInjected)
	}
}

func TestExtensionRenderers(t *testing.T) {
	if tab, err := BandwidthContentionResult(); err != nil || !strings.Contains(tab.Text(), "PCIe") {
		t.Errorf("contention render: %v", err)
	}
	tab, err := OverlapAblationResult()
	if err != nil {
		t.Fatalf("overlap render: %v", err)
	}
	if s := tab.Text(); !strings.Contains(s, "2.00x") {
		t.Errorf("overlap render:\n%s", s)
	}
	if tab, err := SDCDetectionResult(31); err != nil || !strings.Contains(tab.Text(), "true") {
		t.Errorf("SDC render: %v", err)
	}
}
