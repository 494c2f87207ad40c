package experiments

import (
	"dsv3/internal/results"
	"dsv3/internal/servesim"
	"dsv3/internal/units"
)

// FleetConfig returns the 1000-instance reference deployment the
// fleet-scale experiment runs: 600 prefill + 400 decode instances
// behind power-of-two routing. The ratio balances the pools for the
// short-output chat workload below (prefill caps at ~13.5K req/s,
// decode at ~13K), so both run hot at the study's rates.
func FleetConfig(seed int64) servesim.Config {
	cfg := servesim.V3ServeConfig()
	cfg.Fleet.PrefillInstances = 600
	cfg.Fleet.DecodeInstances = 400
	cfg.Fleet.MaxBatch = 32
	cfg.Fleet.Router = servesim.RoutePowerOfTwo
	cfg.KV.HBM.CapacityBytes = 4 * units.GB
	cfg.Seed = seed
	return cfg
}

// FleetWorkload is the million-request traffic the fleet absorbs:
// Poisson arrivals with short chat-shaped prompts and outputs, at a
// rate that keeps decode batches occupied without saturating prefill.
func FleetWorkload(rate float64) servesim.Workload {
	return servesim.Workload{
		Arrival:    servesim.ArrivalPoisson,
		RatePerSec: rate,
		Requests:   1_000_000,
		Prompt:     servesim.LogNormal(192, 0.4),
		Output:     servesim.LogNormal(64, 0.4),
	}
}

// FleetStudy runs the 1000-instance deployment under one million
// Poisson requests per arrival rate. Quick mode runs the single
// reference rate; the full study adds a heavier point near the
// prefill-capacity knee.
func FleetStudy(seed int64, quick bool) ([]servesim.SweepPoint, error) {
	rates := []float64{11000, 12500}
	if quick {
		rates = rates[:1]
	}
	cfg := FleetConfig(seed)
	pts := make([]servesim.SweepPoint, 0, len(rates))
	for _, rate := range rates {
		rep, err := servesim.Run(cfg, FleetWorkload(rate))
		if err != nil {
			return nil, err
		}
		pts = append(pts, servesim.SweepPoint{RatePerSec: rate, Report: rep})
	}
	return pts, nil
}

// FleetStudyResult returns the fleet study as a structured table.
func FleetStudyResult(seed int64, quick bool) (*results.Table, error) {
	pts, err := FleetStudy(seed, quick)
	if err != nil {
		return nil, err
	}
	t := results.NewTable("Serving: 1000-instance fleet (600 prefill + 400 decode) under 1M Poisson requests",
		results.CU("Rate", "req/s"), results.C("Completed"),
		results.CU("TTFT p50", "ms"), results.CU("TTFT p99", "ms"),
		results.CU("TPOT p50", "ms"), results.CU("TPOT p99", "ms"),
		results.CU("Goodput", "req/s"), results.CU("SLO", "%"),
		results.C("Batch"), results.CU("KV peak", "%"))
	for _, p := range pts {
		r := p.Report
		t.Row(results.Float("%.0f", p.RatePerSec), results.Int(r.Completed),
			results.Float("%.0f", r.TTFT.P50*1e3), results.Float("%.0f", r.TTFT.P99*1e3),
			results.Float("%.2f", r.TPOT.P50*1e3), results.Float("%.2f", r.TPOT.P99*1e3),
			results.Float("%.1f", r.GoodputRPS), results.Float("%.1f%%", r.SLOAttainment*100),
			results.Float("%.1f", r.MeanBatch), results.Float("%.1f%%", r.PeakKVOccupancy*100))
	}
	return t, nil
}
