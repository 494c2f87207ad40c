package experiments

import (
	"dsv3/internal/gemm"
	"dsv3/internal/inference"
	"dsv3/internal/parallel"
	"dsv3/internal/quant"
	"dsv3/internal/results"
	"dsv3/internal/units"
)

// bandwidthContention sweeps KV-cache fetch demand against EP traffic
// on a shared PCIe 5.0 link (§4.5.1) and shows what §4.5.2's dynamic
// traffic prioritization recovers.
func bandwidthContention() (*results.Table, error) {
	cfg := inference.V3EPConfig()
	t := results.NewTable("§4.5: PCIe contention between KV-cache transfers and EP traffic (64 GB/s PCIe 5.0)",
		results.CU("KV fetch rate", "B/s"), results.CU("TPOT (fair sharing)", "s"),
		results.CU("TPOT (EP prioritized)", "s"))
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
		t.Row(results.Val(units.FormatBandwidth(cc.KVTransferRate), float64(cc.KVTransferRate)),
			results.Val(units.FormatSeconds(fair.TPOT), float64(fair.TPOT)),
			results.Val(units.FormatSeconds(prio.TPOT), float64(prio.TPOT)))
	}
	return t, nil
}

// overlapAblation quantifies dual micro-batch overlap vs serial
// execution across compute:comm balances.
func overlapAblation() (*results.Table, error) {
	cfg := inference.V3EPConfig()
	comm := cfg.CommTimePerStep(50 * units.GB)
	t := results.NewTable("§2.3.1: dual micro-batch overlap vs serial execution (peak 2x at compute = 2x comm)",
		results.C("compute/comm"), results.C("speedup"))
	for _, ratio := range []float64{0.5, 1, 2, 4, 8} {
		r, err := cfg.AnalyzeOverlap(50*units.GB, ratio*comm)
		if err != nil {
			return nil, err
		}
		t.Row(results.Float("%.1f", ratio), results.Float("%.2fx", r.SpeedupFactor))
	}
	return t, nil
}

// sdcDetection runs Freivalds verification over repeated FP8 GEMMs with
// injected single-element corruptions (§6.1.2).
func sdcDetection(seed int64) *results.Table {
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
	clean := gemm.VerifyGEMM(a, b, c, 8, 0.2, rng)
	const faults = 50
	caught := 0
	for i := 0; i < faults; i++ {
		// Faults are injected clearly above the FP8 quantization noise
		// floor (a corruption below the noise is information-
		// theoretically indistinguishable from honest rounding).
		bad := gemm.InjectFault(c, rng.Intn(c.Rows), rng.Intn(c.Cols), 500+rng.Float64()*1000)
		if !gemm.VerifyGEMM(a, b, bad, 8, 0.2, rng) {
			caught++
		}
	}
	t := results.NewTable("§6.1.2: checksum-based SDC detection (Freivalds verification of FP8 GEMMs)",
		results.C("Quantity"), results.C("Value"))
	t.Row(results.Str("clean FP8 GEMM verifies"), results.Bool(clean))
	t.Row(results.Str("injected corruptions"), results.Int(faults))
	t.Row(results.Str("corruptions detected"), results.Int(caught))
	return t
}
