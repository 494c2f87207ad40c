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

// Table4Paper holds the paper's MPFT/MRFT measurements.
type Table4Paper struct {
	TokensPerDay float64
	TimePerStep  float64
	F1, Bubble   float64
	B1, W1, F1B1 float64
	Opt          float64
	TFLOPSNC     float64
	TFLOPSC      float64
	MFUNC, MFUC  float64
}

// PaperTable4MPFT returns the paper's MPFT column.
func PaperTable4MPFT() Table4Paper {
	return Table4Paper{
		TokensPerDay: 272.80e9, TimePerStep: 19.926,
		F1: 1.13, Bubble: 2.06, B1: 1.99, W1: 0.48, F1B1: 13.95, Opt: 0.29,
		TFLOPSNC: 432, TFLOPSC: 385, MFUNC: 0.4373, MFUC: 0.3894,
	}
}

// Table4 runs the production training-step model on both fabrics. The
// two columns are identical by construction: DualPipe fully overlaps EP
// communication, and Figures 5-7 show the fabrics deliver the same
// bandwidth — which is exactly the paper's conclusion (differences
// within measurement noise).
func Table4() (mpft, mrft trainsim.Metrics, err error) {
	cols, err := parallel.Map(2, func(int) (trainsim.Metrics, error) {
		return trainsim.V3Config().Run()
	})
	if err != nil {
		return
	}
	return cols[0], cols[1], nil
}

// Table4Result returns the training metric comparison as a structured
// table (metric-major, one column per fabric plus the paper reference).
func Table4Result() (*results.Table, error) {
	mpft, mrft, err := Table4()
	if err != nil {
		return nil, err
	}
	paper := PaperTable4MPFT()
	t := results.NewTable("Table 4: training metrics, MPFT vs MRFT (simulated | paper MPFT)",
		results.C("Metric"), results.C("MPFT"), results.C("MRFT"), results.C("paper"))
	row := func(name, format string, a, b, p float64) {
		t.Row(results.Str(name), results.Float(format, a), results.Float(format, b), results.Float(format, p))
	}
	row("tokens/day (B)", "%.2f", mpft.TokensPerDay/1e9, mrft.TokensPerDay/1e9, paper.TokensPerDay/1e9)
	row("time/step (s)", "%.3f", mpft.TimePerStep, mrft.TimePerStep, paper.TimePerStep)
	row("1F (s)", "%.2f", mpft.Phases.F1, mrft.Phases.F1, paper.F1)
	row("bubble (s)", "%.2f", mpft.Phases.Bubble, mrft.Phases.Bubble, paper.Bubble)
	row("1B (s)", "%.2f", mpft.Phases.B1, mrft.Phases.B1, paper.B1)
	row("1W (s)", "%.2f", mpft.Phases.W1, mrft.Phases.W1, paper.W1)
	row("1F1B (s)", "%.2f", mpft.Phases.F1B1, mrft.Phases.F1B1, paper.F1B1)
	row("opt (s)", "%.2f", float64(mpft.OptimizerTime), float64(mrft.OptimizerTime), paper.Opt)
	row("TFLOPS (non-causal)", "%.0f", mpft.TFLOPSNonCausal/1e12, mrft.TFLOPSNonCausal/1e12, paper.TFLOPSNC)
	row("TFLOPS (causal)", "%.0f", mpft.TFLOPSCausal/1e12, mrft.TFLOPSCausal/1e12, paper.TFLOPSC)
	row("MFU (non-causal)", "%.2f%%", mpft.MFUNonCausal*100, mrft.MFUNonCausal*100, paper.MFUNC*100)
	row("MFU (causal)", "%.2f%%", mpft.MFUCausal*100, mrft.MFUCausal*100, paper.MFUC*100)
	return t, nil
}

// Table5Result returns the link-layer latency comparison. Cell values
// are seconds; the text keeps the human-scaled formatting.
func Table5Result() *results.Table {
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

// InferenceLimitsRow is one interconnect of the §2.3.2 analysis.
type InferenceLimitsRow struct {
	Interconnect string
	Bandwidth    units.BytesPerSecond
	CommTime     units.Seconds
	TPOT         units.Seconds
	TPS          float64
}

// InferenceLimits reproduces the §2.3.2 derivation.
func InferenceLimits() ([]InferenceLimitsRow, error) {
	cfg := inference.V3EPConfig()
	systems := []struct {
		name string
		bw   units.BytesPerSecond
	}{
		{"CX7 400G IB (50 GB/s)", 50 * units.GB},
		{"GB200 NVL72 (900 GB/s)", 900 * units.GB},
	}
	var rows []InferenceLimitsRow
	for _, s := range systems {
		a, err := cfg.Analyze(s.bw)
		if err != nil {
			return nil, err
		}
		rows = append(rows, InferenceLimitsRow{
			Interconnect: s.name, Bandwidth: s.bw,
			CommTime: a.CommTime, TPOT: a.TPOT, TPS: a.TPS,
		})
	}
	return rows, nil
}

// InferenceLimitsResult returns §2.3.2 as a structured table.
func InferenceLimitsResult() (*results.Table, error) {
	rows, err := InferenceLimits()
	if err != nil {
		return nil, err
	}
	t := results.NewTable("§2.3.2: EP inference speed limits (paper: 120.96us/14.76ms/67 TPS IB; 6.72us/0.82ms/~1200 TPS NVL72)",
		results.C("Interconnect"), results.CU("Comm/step", "s"), results.CU("TPOT", "s"),
		results.CU("TPS", "tokens/s"))
	for _, r := range rows {
		t.Row(results.Str(r.Interconnect),
			results.Val(units.FormatSeconds(r.CommTime), float64(r.CommTime)),
			results.Val(units.FormatSeconds(r.TPOT), float64(r.TPOT)),
			results.Float("%.0f", r.TPS))
	}
	return t, nil
}

// MTPResult reports §2.3.3.
type MTPResult struct {
	Analytic  float64
	Simulated float64
}

// MTPSpeedup reproduces the 1.8x MTP figure.
func MTPSpeedup(seed int64) (MTPResult, error) {
	cfg := mtp.V3Config()
	sim, err := mtp.Simulate(cfg, 100000, parallel.NewRand(seed))
	if err != nil {
		return MTPResult{}, err
	}
	return MTPResult{Analytic: cfg.ExpectedSpeedup(), Simulated: sim.Speedup}, nil
}

// MTPResultTables returns §2.3.3 as structured tables: the headline
// speedups plus the depth/acceptance extension sweep.
func MTPResultTables(seed int64) ([]*results.Table, error) {
	r, err := MTPSpeedup(seed)
	if err != nil {
		return nil, err
	}
	t := results.NewTable("§2.3.3: MTP speculative decoding (paper: 80-90% acceptance -> 1.8x TPS)",
		results.C("Quantity"), results.C("Value"))
	t.Row(results.Str("analytic speedup"), results.Float("%.3fx", r.Analytic))
	t.Row(results.Str("simulated speedup"), results.Float("%.3fx", r.Simulated))
	sweep := results.NewTable("Extension: MTP depth x acceptance sweep (analytic)",
		results.C("Modules"), results.C("p=0.75"), results.C("p=0.85"), results.C("p=0.95"))
	for _, d := range []int{1, 2, 3, 4} {
		pts := mtp.Sweep([]int{d}, []float64{0.75, 0.85, 0.95}, 1.0/61, 0.03)
		sweep.Row(results.Int(d), results.Float("%.2fx", pts[0].Speedup),
			results.Float("%.2fx", pts[1].Speedup), results.Float("%.2fx", pts[2].Speedup))
	}
	return []*results.Table{t, sweep}, nil
}

// FP8AccuracyResult reports the §2.4 toy-training validation.
type FP8AccuracyResult struct {
	BF16Loss, FP8FineLoss, FP8CoarseLoss float64
	FineGapPct, CoarseGapPct             float64
}

// FP8Accuracy trains the toy MLP under BF16 and both FP8 variants. The
// table reports only FinalLoss, so the arms evaluate just the FinalLoss
// tail window — bit-identical losses, three quarters fewer eval GEMMs.
func FP8Accuracy() (FP8AccuracyResult, error) {
	cfg := fp8train.DefaultConfig()
	cfg.EvalTailOnly = true
	rs, err := fp8train.Compare(cfg, []fp8train.Precision{fp8train.BF16, fp8train.FP8Fine, fp8train.FP8Coarse})
	if err != nil {
		return FP8AccuracyResult{}, err
	}
	return FP8AccuracyResult{
		BF16Loss:      rs[0].FinalLoss,
		FP8FineLoss:   rs[1].FinalLoss,
		FP8CoarseLoss: rs[2].FinalLoss,
		FineGapPct:    fp8train.RelativeLossGap(rs[1], rs[0]) * 100,
		CoarseGapPct:  fp8train.RelativeLossGap(rs[2], rs[0]) * 100,
	}, nil
}

// FP8AccuracyResultTable returns §2.4 as a structured table.
func FP8AccuracyResultTable() (*results.Table, error) {
	r, err := FP8Accuracy()
	if err != nil {
		return nil, err
	}
	t := results.NewTable("§2.4/§3.1: FP8 training accuracy at toy scale (paper: relative loss vs BF16 < 0.25%)",
		results.C("Precision"), results.C("Final loss"), results.CU("Gap vs BF16", "%"))
	t.Row(results.Str("BF16"), results.Float("%.6f", r.BF16Loss), results.NA())
	t.Row(results.Str("FP8 fine-grained + promoted"), results.Float("%.6f", r.FP8FineLoss), results.Float("%.3f%%", r.FineGapPct))
	t.Row(results.Str("FP8 per-tensor, no promotion"), results.Float("%.6f", r.FP8CoarseLoss), results.Float("%.3f%%", r.CoarseGapPct))
	return t, nil
}

// AccumulationRow is one accumulator configuration of the §3.1.1 sweep.
type AccumulationRow struct {
	Name     string
	RelError float64
}

// AccumulationAblation sweeps accumulator precision on a long-K FP8
// GEMM with exact inputs, isolating the FP22-vs-FP32 effect.
func AccumulationAblation(seed int64) ([]AccumulationRow, error) {
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
	return parallel.Map(len(configs), func(ci int) (AccumulationRow, error) {
		got := gemm.FP8(a, b, configs[ci].cfg)
		rel, err := stats.RMSRelativeError(got.Data, ref.Data)
		if err != nil {
			return AccumulationRow{}, err
		}
		return AccumulationRow{Name: configs[ci].name, RelError: rel}, nil
	})
}

// AccumulationAblationResult returns §3.1.1 as a structured table.
func AccumulationAblationResult(seed int64) (*results.Table, error) {
	rows, err := AccumulationAblation(seed)
	if err != nil {
		return nil, err
	}
	t := results.NewTable("§3.1.1: accumulation precision ablation (K=8192 FP8 GEMM, exact inputs)",
		results.C("Accumulator"), results.C("RMS rel error"))
	for _, r := range rows {
		t.Row(results.Str(r.Name), results.Float("%.2e", r.RelError))
	}
	return t, nil
}

// LogFMTRow is one format of the §3.2 comparison.
type LogFMTRow struct {
	Format string
	SNRdB  float64
}

// LogFMTAccuracy compares LogFMT against FP8/BF16 on gaussian tiles.
func LogFMTAccuracy(seed int64) ([]LogFMTRow, error) {
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
	rows := []struct {
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
	return parallel.Map(len(rows), func(ri int) (LogFMTRow, error) {
		snr, err := meanSNR(rows[ri].fn)
		if err != nil {
			return LogFMTRow{}, err
		}
		return LogFMTRow{Format: rows[ri].name, SNRdB: snr}, nil
	})
}

// LogFMTAccuracyResult returns §3.2 as a structured table.
func LogFMTAccuracyResult(seed int64) (*results.Table, error) {
	rows, err := LogFMTAccuracy(seed)
	if err != nil {
		return nil, err
	}
	t := results.NewTable("§3.2: LogFMT vs FP8/BF16 on 1x128 gaussian activation tiles (paper: LogFMT-8 beats E4M3/E5M2; LogFMT-10 ~ BF16 combine)",
		results.C("Format"), results.CU("Mean SNR (dB)", "dB"))
	for _, r := range rows {
		t.Row(results.Str(r.Format), results.Float("%.2f", r.SNRdB))
	}
	return t, nil
}

// NodeLimitedRow is one gate configuration of the §4.3 study.
type NodeLimitedRow struct {
	Gate            string
	MeanNodes       float64
	MeanRemoteNodes float64
	MaxNodes        int
}

// NodeLimitedRouting quantifies the §4.3 IB-traffic deduplication on
// the reference 8-node, 64-GPU, 256-expert deployment.
func NodeLimitedRouting(seed int64) ([]NodeLimitedRow, error) {
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
	return parallel.Map(len(gates), func(i int) (NodeLimitedRow, error) {
		st := moe.CollectStatsSeeded(gates[i].g, place, 4000, 0, nil, seed+int64(i))
		return NodeLimitedRow{
			Gate:            gates[i].name,
			MeanNodes:       st.MeanNodes,
			MeanRemoteNodes: st.MeanRemoteNodes,
			MaxNodes:        st.MaxNodes,
		}, nil
	})
}

// NodeLimitedRoutingResult returns §4.3 as a structured table.
func NodeLimitedRoutingResult(seed int64) (*results.Table, error) {
	rows, err := NodeLimitedRouting(seed)
	if err != nil {
		return nil, err
	}
	t := results.NewTable("§4.3: node-limited routing — deduplicated IB cost factor M (paper: M <= 4 vs up to 8)",
		results.C("Gate"), results.C("E[M]"), results.C("E[remote]"), results.C("max M"))
	for _, r := range rows {
		t.Row(results.Str(r.Gate), results.Float("%.2f", r.MeanNodes),
			results.Float("%.2f", r.MeanRemoteNodes), results.Int(r.MaxNodes))
	}
	return t, nil
}
