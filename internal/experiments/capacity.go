package experiments

import (
	"fmt"

	"dsv3/internal/parallel"
	"dsv3/internal/results"
	"dsv3/internal/servesim"
	"dsv3/internal/units"
)

// RouterShootout compares the pluggable routing policies at a fixed
// arrival rate on a KV-constrained reference fleet. Every arm runs the
// identical traffic (same seed), so the only independent variable is
// the policy applied to prefill dispatch and the prefill->decode
// hand-off.
func RouterShootout(seed int64, quick bool) ([]servesim.SweepPoint, error) {
	arms := servesim.RouterPolicies()
	w := servingWorkload(quick)
	w.RatePerSec = 7
	return parallel.Map(len(arms), func(i int) (servesim.SweepPoint, error) {
		cfg := servesim.V3ServeConfig()
		cfg.Seed = seed
		cfg.KV.HBM.CapacityBytes = 2 * units.GB / 5
		cfg.Fleet.Router = arms[i]
		rep, err := servesim.Run(cfg, w)
		if err != nil {
			return servesim.SweepPoint{}, err
		}
		return servesim.SweepPoint{RatePerSec: w.RatePerSec, Report: rep}, nil
	})
}

// RouterShootoutResult returns the policy shoot-out as a structured
// table.
func RouterShootoutResult(seed int64, quick bool) (*results.Table, error) {
	pts, err := RouterShootout(seed, quick)
	if err != nil {
		return nil, err
	}
	arms := servesim.RouterPolicies()
	t := results.NewTable("Serving: router policy shoot-out (2P+4D, 7 req/s, 0.4 GB KV/instance, identical traffic per arm)",
		results.C("Router"), results.CU("TTFT p50", "ms"), results.CU("TTFT p99", "ms"),
		results.CU("TPOT p50", "ms"), results.CU("TPOT p99", "ms"),
		results.CU("Goodput", "req/s"), results.CU("SLO", "%"), results.C("Preempt"), results.CU("KV peak", "%"))
	for i, p := range pts {
		r := p.Report
		t.Row(results.Str(arms[i].String()),
			results.Float("%.0f", r.TTFT.P50*1e3), results.Float("%.0f", r.TTFT.P99*1e3),
			results.Float("%.2f", r.TPOT.P50*1e3), results.Float("%.2f", r.TPOT.P99*1e3),
			results.Float("%.2f", r.GoodputRPS), results.Float("%.1f%%", r.SLOAttainment*100),
			results.Int(r.Preemptions), results.Float("%.1f%%", r.PeakKVOccupancy*100))
	}
	return t, nil
}

// capacityArm is one (fleet shape, router) point of the capacity study.
type capacityArm struct {
	Fleet   string
	Prefill int
	Decode  int
	Policy  servesim.RouterPolicy
	// shape indexes the fleet shape so both routers on a shape derive
	// the same seed and face identical traffic.
	shape int
}

func capacityArms(quick bool) []capacityArm {
	shapes := []struct {
		name            string
		prefill, decode int
	}{
		{"2P:4D", 2, 4},
		{"3P:5D", 3, 5},
		{"4P:4D", 4, 4},
	}
	if quick {
		shapes = shapes[:2]
	}
	var arms []capacityArm
	for si, s := range shapes {
		for _, p := range []servesim.RouterPolicy{servesim.RouteLeastKV, servesim.RoutePowerOfTwo} {
			arms = append(arms, capacityArm{Fleet: s.name, Prefill: s.prefill, Decode: s.decode, Policy: p, shape: si})
		}
	}
	return arms
}

// CapacityStudyPoint is one arm's capacity-search outcome.
type CapacityStudyPoint struct {
	Fleet  string
	Policy servesim.RouterPolicy
	Result *servesim.CapacityResult
}

// CapacityStudy bisects each (fleet shape, router) arm to its maximum
// sustainable Poisson rate at 90% SLO attainment — the goodput knee
// the paper's disaggregated deployment is sized against. Arms fan out
// over the worker pool; each planner runs sequentially inside its arm
// with a seed derived per fleet shape, so the knees are byte-identical
// for any worker count and the two routers on a shape see identical
// traffic.
func CapacityStudy(seed int64, quick bool) ([]CapacityStudyPoint, error) {
	arms := capacityArms(quick)
	w := servingWorkload(quick)
	w.Requests = 250
	if quick {
		w.Requests = 120
	}
	planner := servesim.DefaultCapacityPlanner()
	if quick {
		planner.Tolerance = 0.08
	}
	return parallel.Map(len(arms), func(i int) (CapacityStudyPoint, error) {
		a := arms[i]
		cfg := servesim.V3ServeConfig()
		cfg.Seed = parallel.DeriveSeed(seed, a.shape)
		cfg.KV.HBM.CapacityBytes = 2 * units.GB / 5
		cfg.Fleet.PrefillInstances, cfg.Fleet.DecodeInstances = a.Prefill, a.Decode
		cfg.Fleet.Router = a.Policy
		res, err := planner.Find(cfg, w)
		if err != nil {
			return CapacityStudyPoint{}, fmt.Errorf("%s %s: %w", a.Fleet, a.Policy, err)
		}
		return CapacityStudyPoint{Fleet: a.Fleet, Policy: a.Policy, Result: res}, nil
	})
}

// CapacityStudyResult returns the capacity study as a structured table.
func CapacityStudyResult(seed int64, quick bool) (*results.Table, error) {
	pts, err := CapacityStudy(seed, quick)
	if err != nil {
		return nil, err
	}
	t := results.NewTable("Serving: SLO capacity knee per fleet shape and router (90% attainment target, 0.4 GB KV/instance)",
		results.C("Fleet"), results.C("Router"), results.CU("Knee", "req/s"),
		results.CU("SLO@knee", "%"), results.CU("Goodput", "req/s"),
		results.CU("TTFT p99", "ms"), results.CU("TPOT p99", "ms"), results.C("Preempt"), results.C("Probes"))
	for _, p := range pts {
		r := p.Result.Report
		t.Row(results.Str(p.Fleet), results.Str(p.Policy.String()),
			results.Float("%.2f", p.Result.MaxRate),
			results.Float("%.1f%%", p.Result.Attainment*100),
			results.Float("%.2f", r.GoodputRPS),
			results.Float("%.0f", r.TTFT.P99*1e3), results.Float("%.2f", r.TPOT.P99*1e3),
			results.Int(r.Preemptions), results.Int(len(p.Result.Probes)))
	}
	return t, nil
}
