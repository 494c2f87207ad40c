package experiments

import (
	"dsv3/internal/gemm"
	"dsv3/internal/inference"
	"dsv3/internal/parallel"
	"dsv3/internal/quant"
	"dsv3/internal/results"
	"dsv3/internal/units"
)

// ContentionRow is one KV-transfer-rate point of the §4.5 study.
type ContentionRow struct {
	KVRate          units.BytesPerSecond
	TPOTFairSharing units.Seconds
	TPOTPrioritized units.Seconds
}

// BandwidthContention sweeps KV-cache fetch demand against EP traffic
// on a shared PCIe 5.0 link (§4.5.1) and shows what §4.5.2's dynamic
// traffic prioritization recovers.
func BandwidthContention() ([]ContentionRow, error) {
	cfg := inference.V3EPConfig()
	var rows []ContentionRow
	for _, kv := range []float64{0, 10, 20, 40, 60} {
		cc := inference.ContentionConfig{
			PCIeBandwidth:  64 * units.GB,
			KVTransferRate: kv * units.GB,
			EPDemand:       50 * units.GB,
		}
		fair, err := cfg.TPOTUnderContention(50*units.GB, cc, false)
		if err != nil {
			return nil, err
		}
		prio, err := cfg.TPOTUnderContention(50*units.GB, cc, true)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ContentionRow{
			KVRate:          kv * units.GB,
			TPOTFairSharing: fair.TPOT,
			TPOTPrioritized: prio.TPOT,
		})
	}
	return rows, nil
}

// BandwidthContentionResult returns §4.5 as a structured table.
func BandwidthContentionResult() (*results.Table, error) {
	rows, err := BandwidthContention()
	if err != nil {
		return nil, err
	}
	t := results.NewTable("§4.5: PCIe contention between KV-cache transfers and EP traffic (64 GB/s PCIe 5.0)",
		results.CU("KV fetch rate", "B/s"), results.CU("TPOT (fair sharing)", "s"),
		results.CU("TPOT (EP prioritized)", "s"))
	for _, r := range rows {
		t.Row(results.Val(units.FormatBandwidth(r.KVRate), float64(r.KVRate)),
			results.Val(units.FormatSeconds(r.TPOTFairSharing), float64(r.TPOTFairSharing)),
			results.Val(units.FormatSeconds(r.TPOTPrioritized), float64(r.TPOTPrioritized)))
	}
	return t, nil
}

// OverlapRow is one compute:comm ratio of the §2.3.1 ablation.
type OverlapRow struct {
	ComputeCommRatio float64
	Speedup          float64
}

// OverlapAblation quantifies dual micro-batch overlap vs serial
// execution across compute:comm balances.
func OverlapAblation() ([]OverlapRow, error) {
	cfg := inference.V3EPConfig()
	comm := cfg.CommTimePerStep(50 * units.GB)
	var rows []OverlapRow
	for _, ratio := range []float64{0.5, 1, 2, 4, 8} {
		r, err := cfg.AnalyzeOverlap(50*units.GB, ratio*comm)
		if err != nil {
			return nil, err
		}
		rows = append(rows, OverlapRow{ComputeCommRatio: ratio, Speedup: r.SpeedupFactor})
	}
	return rows, nil
}

// OverlapAblationResult returns §2.3.1 as a structured table.
func OverlapAblationResult() (*results.Table, error) {
	rows, err := OverlapAblation()
	if err != nil {
		return nil, err
	}
	t := results.NewTable("§2.3.1: dual micro-batch overlap vs serial execution (peak 2x at compute = 2x comm)",
		results.C("compute/comm"), results.C("speedup"))
	for _, r := range rows {
		t.Row(results.Float("%.1f", r.ComputeCommRatio), results.Float("%.2fx", r.Speedup))
	}
	return t, nil
}

// SDCResult reports the §6.1.2 checksum-validation demo.
type SDCResult struct {
	CleanVerified  bool
	FaultsInjected int
	FaultsCaught   int
}

// SDCDetection runs Freivalds verification over repeated FP8 GEMMs with
// injected single-element corruptions.
func SDCDetection(seed int64) (SDCResult, error) {
	rng := parallel.NewRand(seed)
	a := quant.NewMatrix(16, 256)
	b := quant.NewMatrix(256, 16)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	c := gemm.FP8(a, b, gemm.DeepSeekV3Recipe())
	res := SDCResult{CleanVerified: gemm.VerifyGEMM(a, b, c, 8, 0.2, rng)}
	const faults = 50
	res.FaultsInjected = faults
	for i := 0; i < faults; i++ {
		// Faults are injected clearly above the FP8 quantization noise
		// floor (a corruption below the noise is information-
		// theoretically indistinguishable from honest rounding).
		bad := gemm.InjectFault(c, rng.Intn(c.Rows), rng.Intn(c.Cols), 500+rng.Float64()*1000)
		if !gemm.VerifyGEMM(a, b, bad, 8, 0.2, rng) {
			res.FaultsCaught++
		}
	}
	return res, nil
}

// SDCDetectionResult returns §6.1.2 as a structured table.
func SDCDetectionResult(seed int64) (*results.Table, error) {
	r, err := SDCDetection(seed)
	if err != nil {
		return nil, err
	}
	t := results.NewTable("§6.1.2: checksum-based SDC detection (Freivalds verification of FP8 GEMMs)",
		results.C("Quantity"), results.C("Value"))
	t.Row(results.Str("clean FP8 GEMM verifies"), results.Bool(r.CleanVerified))
	t.Row(results.Str("injected corruptions"), results.Int(r.FaultsInjected))
	t.Row(results.Str("corruptions detected"), results.Int(r.FaultsCaught))
	return t, nil
}
