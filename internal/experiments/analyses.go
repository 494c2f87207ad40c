package experiments

import (
	"dsv3/internal/cluster"
	"dsv3/internal/fp8train"
	"dsv3/internal/gemm"
	"dsv3/internal/inference"
	"dsv3/internal/logfmt"
	"dsv3/internal/moe"
	"dsv3/internal/mtp"
	"dsv3/internal/parallel"
	"dsv3/internal/quant"
	"dsv3/internal/results"
	"dsv3/internal/stats"
	"dsv3/internal/trainsim"
	"dsv3/internal/units"
)

// table4 runs the production training-step model on both fabrics,
// metric-major with one column per fabric plus the paper's MPFT
// reference. The two simulated columns are identical by construction:
// DualPipe fully overlaps EP communication, and Figures 5-7 show the
// fabrics deliver the same bandwidth — which is exactly the paper's
// conclusion (differences within measurement noise).
func table4() (*results.Table, error) {
	cols, err := parallel.Map(2, func(int) (trainsim.Metrics, error) {
		return trainsim.V3Config().Run()
	})
	if err != nil {
		return nil, err
	}
	mpft, mrft := cols[0], cols[1]
	t := results.NewTable("Table 4: training metrics, MPFT vs MRFT (simulated | paper MPFT)",
		results.C("Metric"), results.C("MPFT"), results.C("MRFT"), results.C("paper"))
	row := func(name, format string, a, b, p float64) {
		t.Row(results.Str(name), results.Float(format, a), results.Float(format, b), results.Float(format, p))
	}
	row("tokens/day (B)", "%.2f", mpft.TokensPerDay/1e9, mrft.TokensPerDay/1e9, 272.80)
	row("time/step (s)", "%.3f", mpft.TimePerStep, mrft.TimePerStep, 19.926)
	row("1F (s)", "%.2f", mpft.Phases.F1, mrft.Phases.F1, 1.13)
	row("bubble (s)", "%.2f", mpft.Phases.Bubble, mrft.Phases.Bubble, 2.06)
	row("1B (s)", "%.2f", mpft.Phases.B1, mrft.Phases.B1, 1.99)
	row("1W (s)", "%.2f", mpft.Phases.W1, mrft.Phases.W1, 0.48)
	row("1F1B (s)", "%.2f", mpft.Phases.F1B1, mrft.Phases.F1B1, 13.95)
	row("opt (s)", "%.2f", float64(mpft.OptimizerTime), float64(mrft.OptimizerTime), 0.29)
	row("TFLOPS (non-causal)", "%.0f", mpft.TFLOPSNonCausal/1e12, mrft.TFLOPSNonCausal/1e12, 432)
	row("TFLOPS (causal)", "%.0f", mpft.TFLOPSCausal/1e12, mrft.TFLOPSCausal/1e12, 385)
	// The paper's MFU is a fraction. Scaling it at run time, not writing
	// 43.73, keeps the emitted float (43.730000000000004) the goldens pin.
	paperMFU := [2]float64{0.4373, 0.3894}
	row("MFU (non-causal)", "%.2f%%", mpft.MFUNonCausal*100, mrft.MFUNonCausal*100, paperMFU[0]*100)
	row("MFU (causal)", "%.2f%%", mpft.MFUCausal*100, mrft.MFUCausal*100, paperMFU[1]*100)
	return t, nil
}

// table5 returns the link-layer latency comparison. Cell values are
// seconds; the text keeps the human-scaled formatting.
func table5() *results.Table {
	p := cluster.DefaultLatencyParams()
	sec := func(s units.Seconds) results.Cell { return results.Val(units.FormatSeconds(s), float64(s)) }
	t := results.NewTable("Table 5: CPU-side end-to-end latency, 64 B transfer",
		results.C("Link layer"), results.CU("Same leaf", "s"), results.CU("Cross leaf", "s"),
		results.CU("paper same", "s"), results.CU("paper cross", "s"))
	t.Row(results.Str("RoCE"), sec(p.EndToEnd(cluster.RoCE, true)), sec(p.EndToEnd(cluster.RoCE, false)),
		results.Val("3.60us", 3.60e-6), results.Val("5.60us", 5.60e-6))
	t.Row(results.Str("InfiniBand"), sec(p.EndToEnd(cluster.IB, true)), sec(p.EndToEnd(cluster.IB, false)),
		results.Val("2.80us", 2.80e-6), results.Val("3.70us", 3.70e-6))
	t.Row(results.Str("NVLink"), sec(p.EndToEnd(cluster.NVLink, true)), results.NA(),
		results.Val("3.33us", 3.33e-6), results.NA())
	return t
}

// inferenceLimits reproduces the §2.3.2 derivation.
func inferenceLimits() (*results.Table, error) {
	cfg := inference.V3EPConfig()
	t := results.NewTable("§2.3.2: EP inference speed limits (paper: 120.96us/14.76ms/67 TPS IB; 6.72us/0.82ms/~1200 TPS NVL72)",
		results.C("Interconnect"), results.CU("Comm/step", "s"), results.CU("TPOT", "s"),
		results.CU("TPS", "tokens/s"))
	for _, s := range []struct {
		name string
		bw   units.BytesPerSecond
	}{
		{"CX7 400G IB (50 GB/s)", 50 * units.GB},
		{"GB200 NVL72 (900 GB/s)", 900 * units.GB},
	} {
		a, err := cfg.Analyze(s.bw)
		if err != nil {
			return nil, err
		}
		t.Row(results.Str(s.name),
			results.Val(units.FormatSeconds(a.CommTime), float64(a.CommTime)),
			results.Val(units.FormatSeconds(a.TPOT), float64(a.TPOT)),
			results.Float("%.0f", a.TPS))
	}
	return t, nil
}

// mtpSpeedup reproduces the §2.3.3 1.8x MTP figure: the headline
// speedups plus the depth/acceptance extension sweep.
func mtpSpeedup(seed int64) ([]*results.Table, error) {
	cfg := mtp.V3Config()
	sim, err := mtp.Simulate(cfg, 100000, parallel.NewRand(seed))
	if err != nil {
		return nil, err
	}
	t := results.NewTable("§2.3.3: MTP speculative decoding (paper: 80-90% acceptance -> 1.8x TPS)",
		results.C("Quantity"), results.C("Value"))
	t.Row(results.Str("analytic speedup"), results.Float("%.3fx", cfg.ExpectedSpeedup()))
	t.Row(results.Str("simulated speedup"), results.Float("%.3fx", sim.Speedup))
	sweep := results.NewTable("Extension: MTP depth x acceptance sweep (analytic)",
		results.C("Modules"), results.C("p=0.75"), results.C("p=0.85"), results.C("p=0.95"))
	for _, d := range []int{1, 2, 3, 4} {
		pts := mtp.Sweep([]int{d}, []float64{0.75, 0.85, 0.95}, 1.0/61, 0.03)
		sweep.Row(results.Int(d), results.Float("%.2fx", pts[0].Speedup),
			results.Float("%.2fx", pts[1].Speedup), results.Float("%.2fx", pts[2].Speedup))
	}
	return []*results.Table{t, sweep}, nil
}

// fp8Accuracy trains the toy MLP under BF16 and both FP8 variants. The
// table reports only FinalLoss, so the arms evaluate just the FinalLoss
// tail window — bit-identical losses, three quarters fewer eval GEMMs.
func fp8Accuracy() (*results.Table, error) {
	cfg := fp8train.DefaultConfig()
	cfg.EvalTailOnly = true
	rs, err := fp8train.Compare(cfg, []fp8train.Precision{fp8train.BF16, fp8train.FP8Fine, fp8train.FP8Coarse})
	if err != nil {
		return nil, err
	}
	t := results.NewTable("§2.4/§3.1: FP8 training accuracy at toy scale (paper: relative loss vs BF16 < 0.25%)",
		results.C("Precision"), results.C("Final loss"), results.CU("Gap vs BF16", "%"))
	t.Row(results.Str("BF16"), results.Float("%.6f", rs[0].FinalLoss), results.NA())
	t.Row(results.Str("FP8 fine-grained + promoted"), results.Float("%.6f", rs[1].FinalLoss),
		results.Float("%.3f%%", fp8train.RelativeLossGap(rs[1], rs[0])*100))
	t.Row(results.Str("FP8 per-tensor, no promotion"), results.Float("%.6f", rs[2].FinalLoss),
		results.Float("%.3f%%", fp8train.RelativeLossGap(rs[2], rs[0])*100))
	return t, nil
}

// accumulationAblation sweeps accumulator precision on a long-K FP8
// GEMM with exact inputs, isolating the FP22-vs-FP32 effect (§3.1.1).
func accumulationAblation(seed int64) (*results.Table, error) {
	rng := parallel.NewRand(seed)
	exact := func(rows, cols int) *quant.Matrix {
		m := quant.NewMatrix(rows, cols)
		for i := range m.Data {
			m.Data[i] = quant.E4M3.Quantize(rng.NormFloat64())
		}
		m.Data[0] = 448
		return m
	}
	a := exact(8, 8192)
	b := exact(8192, 8)
	ref := gemm.Ref(a, b)

	configs := []struct {
		name string
		cfg  gemm.FP8Config
	}{
		{"FP22 register, no promotion (Hopper raw)", gemm.FP8Config{Format: quant.E4M3, Acc: quant.HopperFP8(), PerTensorScales: true}},
		{"FP22 register + FP32 promotion every 128 (DeepGEMM)", gemm.FP8Config{Format: quant.E4M3, Acc: quant.HopperFP8(), PromoteEvery: 128, PerTensorScales: true}},
		{"FP25-style register (16 frac bits), no promotion", gemm.FP8Config{Format: quant.E4M3, Acc: quant.Accumulator{GroupSize: 32, AlignFracBits: 16, RegisterMantBits: 16}, PerTensorScales: true}},
		{"FP32 register (suggested hardware), no promotion", gemm.FP8Config{Format: quant.E4M3, Acc: quant.FP32Reference(), PerTensorScales: true}},
	}
	rows, err := parallel.Map(len(configs), func(ci int) ([]results.Cell, error) {
		got := gemm.FP8(a, b, configs[ci].cfg)
		rel, err := stats.RMSRelativeError(got.Data, ref.Data)
		if err != nil {
			return nil, err
		}
		return []results.Cell{results.Str(configs[ci].name), results.Float("%.2e", rel)}, nil
	})
	if err != nil {
		return nil, err
	}
	t := results.NewTable("§3.1.1: accumulation precision ablation (K=8192 FP8 GEMM, exact inputs)",
		results.C("Accumulator"), results.C("RMS rel error"))
	t.Rows = rows
	return t, nil
}

// logFMTAccuracy compares LogFMT against FP8/BF16 on gaussian tiles
// (§3.2).
func logFMTAccuracy(seed int64) (*results.Table, error) {
	rng := parallel.NewRand(seed)
	const trials = 200
	tiles := make([][]float64, trials)
	for i := range tiles {
		t := make([]float64, 128)
		for j := range t {
			t[j] = rng.NormFloat64()
		}
		tiles[i] = t
	}
	meanSNR := func(roundtrip func([]float64) []float64) (float64, error) {
		var sum float64
		for _, tile := range tiles {
			snr, err := stats.SNRdB(tile, roundtrip(tile))
			if err != nil {
				return 0, err
			}
			sum += snr
		}
		return sum / trials, nil
	}
	formats := []struct {
		name string
		fn   func([]float64) []float64
	}{
		{"E4M3 (tile-scaled)", func(t []float64) []float64 { return quant.QuantizeTile(quant.E4M3, t).Values }},
		{"E5M2 (tile-scaled)", func(t []float64) []float64 { return quant.QuantizeTile(quant.E5M2, t).Values }},
		{"LogFMT-8", func(t []float64) []float64 { return logfmt.New(8).Roundtrip(t) }},
		{"LogFMT-10", func(t []float64) []float64 { return logfmt.New(10).Roundtrip(t) }},
		{"BF16", func(t []float64) []float64 {
			out := make([]float64, len(t))
			quant.BF16.QuantizeSlice(out, t)
			return out
		}},
	}
	// The tile set is drawn once (serially) above; the per-format
	// Monte-Carlo sweeps over it are independent and fan out.
	rows, err := parallel.Map(len(formats), func(fi int) ([]results.Cell, error) {
		snr, err := meanSNR(formats[fi].fn)
		if err != nil {
			return nil, err
		}
		return []results.Cell{results.Str(formats[fi].name), results.Float("%.2f", snr)}, nil
	})
	if err != nil {
		return nil, err
	}
	t := results.NewTable("§3.2: LogFMT vs FP8/BF16 on 1x128 gaussian activation tiles (paper: LogFMT-8 beats E4M3/E5M2; LogFMT-10 ~ BF16 combine)",
		results.C("Format"), results.CU("Mean SNR (dB)", "dB"))
	t.Rows = rows
	return t, nil
}

// nodeLimitedRouting quantifies the §4.3 IB-traffic deduplication on
// the reference 8-node, 64-GPU, 256-expert deployment.
func nodeLimitedRouting(seed int64) (*results.Table, error) {
	place := moe.Placement{Experts: 256, Nodes: 8, GPUsPerNode: 8}
	if err := place.Validate(); err != nil {
		return nil, err
	}
	gates := []struct {
		name string
		g    moe.Gate
	}{
		{"node-limited (4 groups)", moe.V3Gate()},
		{"unrestricted top-8", func() moe.Gate { g := moe.V3Gate(); g.GroupTopK = 0; return g }()},
	}
	// Each gate's 4000 Monte-Carlo trials chunk out over the worker
	// pool inside CollectStatsSeeded; the two gates fan out above them.
	rows, err := parallel.Map(len(gates), func(i int) ([]results.Cell, error) {
		st := moe.CollectStatsSeeded(gates[i].g, place, 4000, 0, nil, seed+int64(i))
		return []results.Cell{results.Str(gates[i].name), results.Float("%.2f", st.MeanNodes),
			results.Float("%.2f", st.MeanRemoteNodes), results.Int(st.MaxNodes)}, nil
	})
	if err != nil {
		return nil, err
	}
	t := results.NewTable("§4.3: node-limited routing — deduplicated IB cost factor M (paper: M <= 4 vs up to 8)",
		results.C("Gate"), results.C("E[M]"), results.C("E[remote]"), results.C("max M"))
	t.Rows = rows
	return t, nil
}
