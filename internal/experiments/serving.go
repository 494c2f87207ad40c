package experiments

import (
	"dsv3/internal/mtp"
	"dsv3/internal/parallel"
	"dsv3/internal/results"
	"dsv3/internal/servesim"
	"dsv3/internal/units"
)

// servingWorkload is the reference traffic shape shared by the serving
// experiments: Poisson arrivals, heavy-tailed ~1K-token prompts and
// ~512-token outputs.
func servingWorkload(quick bool) servesim.Workload {
	requests := 400
	if quick {
		requests = 150
	}
	return servesim.Workload{
		Arrival:  servesim.ArrivalPoisson,
		Requests: requests,
		Prompt:   servesim.LogNormal(1024, 0.5),
		Output:   servesim.LogNormal(512, 0.5),
	}
}

// ServeLoadSweep drives the reference disaggregated deployment
// (2 prefill + 4 decode instances) across arrival rates and reports
// request-level latency percentiles, goodput and KV pressure — the
// "serving heavy traffic" view of the §2.3.2 decode analysis.
func ServeLoadSweep(seed int64, quick bool) ([]servesim.SweepPoint, error) {
	cfg := servesim.V3ServeConfig()
	cfg.Seed = seed
	rates := []float64{2, 4, 6, 8}
	if quick {
		rates = []float64{4, 8}
	}
	return servesim.RateSweep(cfg, servingWorkload(quick), rates)
}

// ServeLoadSweepResult returns the load sweep as a structured table.
func ServeLoadSweepResult(seed int64, quick bool) (*results.Table, error) {
	pts, err := ServeLoadSweep(seed, quick)
	if err != nil {
		return nil, err
	}
	t := results.NewTable("Serving: Poisson load sweep on 2 prefill + 4 decode instances (V3 latency model, paper §2.3.2 step ceiling)",
		results.CU("Rate", "req/s"), results.CU("TTFT p50", "ms"), results.CU("TTFT p99", "ms"),
		results.CU("TPOT p50", "ms"), results.CU("TPOT p99", "ms"), results.CU("E2E p99", "s"),
		results.CU("Goodput", "req/s"), results.CU("SLO", "%"), results.C("Batch"), results.CU("KV peak", "%"))
	for _, p := range pts {
		r := p.Report
		t.Row(results.Float("%.0f", p.RatePerSec),
			results.Float("%.0f", r.TTFT.P50*1e3), results.Float("%.0f", r.TTFT.P99*1e3),
			results.Float("%.2f", r.TPOT.P50*1e3), results.Float("%.2f", r.TPOT.P99*1e3),
			results.Float("%.2f", r.E2E.P99),
			results.Float("%.2f", r.GoodputRPS), results.Float("%.1f%%", r.SLOAttainment*100),
			results.Float("%.1f", r.MeanBatch), results.Float("%.1f%%", r.PeakKVOccupancy*100))
	}
	return t, nil
}

// disaggArm is one deployment shape of the ratio study.
type disaggArm struct {
	Name      string
	Colocated bool
	Stride    int
	Prefill   int
	Decode    int
}

// disaggArms enumerates the 8-instance deployments: colocation under
// both interference policies, then the prefill:decode ratio sweep.
func disaggArms() []disaggArm {
	return []disaggArm{
		{"colocated 8x (aggressive, stride 4)", true, 4, 4, 4},
		{"colocated 8x (protective, stride 128)", true, 128, 4, 4},
		{"disaggregated 2P:6D", false, 0, 2, 6},
		{"disaggregated 3P:5D", false, 0, 3, 5},
		{"disaggregated 4P:4D", false, 0, 4, 4},
		{"disaggregated 5P:3D", false, 0, 5, 3},
	}
}

// DisaggRatioStudy compares colocated continuous batching against
// disaggregated prefill:decode splits at a high arrival rate on a
// KV-constrained 8-instance cluster. Colocation must pick an
// interference policy — aggressive prefill admission inflates TPOT,
// decode-protective admission starves TTFT — while a balanced
// disaggregated ratio protects both, which is the qualitative argument
// for the paper's disaggregated production deployment.
func DisaggRatioStudy(seed int64, quick bool) ([]servesim.SweepPoint, error) {
	arms := disaggArms()
	w := servingWorkload(quick)
	w.RatePerSec = 12
	return parallel.Map(len(arms), func(i int) (servesim.SweepPoint, error) {
		a := arms[i]
		cfg := servesim.V3ServeConfig()
		cfg.Seed = parallel.DeriveSeed(seed, i)
		cfg.KV.HBM.CapacityBytes = 2 * units.GB
		cfg.Fleet.Colocated = a.Colocated
		if a.Stride > 0 {
			cfg.Fleet.ColocatedStride = a.Stride
		}
		cfg.Fleet.PrefillInstances, cfg.Fleet.DecodeInstances = a.Prefill, a.Decode
		rep, err := servesim.Run(cfg, w)
		if err != nil {
			return servesim.SweepPoint{}, err
		}
		return servesim.SweepPoint{RatePerSec: w.RatePerSec, Report: rep}, nil
	})
}

// DisaggRatioStudyResult returns the ratio study as a structured table.
func DisaggRatioStudyResult(seed int64, quick bool) (*results.Table, error) {
	pts, err := DisaggRatioStudy(seed, quick)
	if err != nil {
		return nil, err
	}
	arms := disaggArms()
	t := results.NewTable("Serving: prefill:decode disaggregation vs colocation (8 instances, 12 req/s, 2 GB KV/instance)",
		results.C("Deployment"), results.CU("TTFT p50", "ms"), results.CU("TTFT p99", "ms"),
		results.CU("TPOT p50", "ms"), results.CU("TPOT p99", "ms"),
		results.CU("Goodput", "req/s"), results.CU("SLO", "%"), results.C("Preempt"))
	for i, p := range pts {
		r := p.Report
		t.Row(results.Str(arms[i].Name),
			results.Float("%.0f", r.TTFT.P50*1e3), results.Float("%.0f", r.TTFT.P99*1e3),
			results.Float("%.2f", r.TPOT.P50*1e3), results.Float("%.2f", r.TPOT.P99*1e3),
			results.Float("%.2f", r.GoodputRPS), results.Float("%.1f%%", r.SLOAttainment*100),
			results.Int(r.Preemptions))
	}
	return t, nil
}

// specArm is one speculative-decoding configuration.
type specArm struct {
	Name       string
	Acceptance float64 // 0 disables MTP
}

func specArms() []specArm {
	return []specArm{
		{"no MTP", 0},
		{"MTP k=1, accept 70%", 0.70},
		{"MTP k=1, accept 85% (paper)", 0.85},
		{"MTP k=1, accept 95%", 0.95},
	}
}

// SpeculativeServingStudy measures what §2.3.3's MTP acceptance rates
// buy at the serving level: tokens per step, TPOT and goodput on the
// reference deployment under fixed load.
func SpeculativeServingStudy(seed int64, quick bool) ([]servesim.SweepPoint, error) {
	arms := specArms()
	w := servingWorkload(quick)
	w.RatePerSec = 6
	return parallel.Map(len(arms), func(i int) (servesim.SweepPoint, error) {
		cfg := servesim.V3ServeConfig()
		cfg.Seed = parallel.DeriveSeed(seed, i)
		if arms[i].Acceptance > 0 {
			spec := mtp.V3Config()
			spec.Acceptance = arms[i].Acceptance
			cfg.MTP = &spec
		}
		rep, err := servesim.Run(cfg, w)
		if err != nil {
			return servesim.SweepPoint{}, err
		}
		return servesim.SweepPoint{RatePerSec: w.RatePerSec, Report: rep}, nil
	})
}

// SpeculativeServingResult returns the MTP study as a structured table.
func SpeculativeServingResult(seed int64, quick bool) (*results.Table, error) {
	pts, err := SpeculativeServingStudy(seed, quick)
	if err != nil {
		return nil, err
	}
	arms := specArms()
	t := results.NewTable("Serving: MTP speculative decoding under load (2P+4D, 6 req/s; paper §2.3.3: 80-90% acceptance -> 1.8x)",
		results.C("Config"), results.C("Tokens/step"), results.C("E[tokens/step]"),
		results.CU("TPOT p50", "ms"), results.CU("TPOT p99", "ms"), results.CU("TTFT p99", "ms"),
		results.CU("Goodput", "req/s"), results.CU("SLO", "%"))
	for i, p := range pts {
		r := p.Report
		analytic := results.NA()
		if arms[i].Acceptance > 0 {
			spec := mtp.V3Config()
			spec.Acceptance = arms[i].Acceptance
			analytic = results.Float("%.3f", spec.ExpectedTokensPerStep())
		}
		t.Row(results.Str(arms[i].Name),
			results.Float("%.3f", r.TokensPerStep), analytic,
			results.Float("%.2f", r.TPOT.P50*1e3), results.Float("%.2f", r.TPOT.P99*1e3),
			results.Float("%.0f", r.TTFT.P99*1e3),
			results.Float("%.2f", r.GoodputRPS), results.Float("%.1f%%", r.SLOAttainment*100))
	}
	return t, nil
}
