package experiments

import (
	"dsv3/internal/parallel"
	"dsv3/internal/results"
	"dsv3/internal/servesim"
	"dsv3/internal/units"
)

// hazardPlanes is the composed incident replayed by HazardStudy: decode
// instance 1 loses 6 of its 8 network planes at t=4s and gets them back
// at t=16s. Unlike a crash, the instance keeps serving — its EP
// all-to-all legs just run at 4x the latency, the gray-failure mode
// the paper's multi-plane fabric turns hard failures into.
func hazardPlanes() *servesim.FaultPlan {
	return &servesim.FaultPlan{Events: []servesim.FaultEvent{
		{At: 4, Kind: servesim.FaultDegrade, Instance: 1, FailedPlanes: 6, TotalPlanes: 8},
		{At: 16, Kind: servesim.FaultHeal, Instance: 1},
	}}
}

// hazardArm is one (router, detection) cell of the hazard grid.
type hazardArm struct {
	Router servesim.RouterPolicy
	Detect bool
}

func hazardArms() []hazardArm {
	var arms []hazardArm
	for _, det := range []bool{false, true} {
		for _, r := range servesim.RouterPolicies() {
			arms = append(arms, hazardArm{Router: r, Detect: det})
		}
	}
	return arms
}

// HazardStudy replays the same composed incident — a plane-degraded
// decode instance plus a 0.1% silent-corruption rate on decode steps —
// across every router policy, with and without the detection stack
// (Freivalds verification + EWMA gray-failure draining). Without
// detection, corrupted steps taint every request in the batch and the
// degraded straggler keeps taking traffic; with it, verification
// converts corruption into retryable quarantines and the EWMA detector
// drains the straggler, trading a little verify latency and some
// retries for clean responses.
func HazardStudy(seed int64, quick bool) ([]servesim.SweepPoint, error) {
	arms := hazardArms()
	w := servingWorkload(quick)
	w.RatePerSec = 5
	return parallel.Map(len(arms), func(i int) (servesim.SweepPoint, error) {
		cfg := servesim.V3ServeConfig()
		cfg.Seed = seed
		cfg.KV.HBM.CapacityBytes = 2 * units.GB / 5
		cfg.Fleet.Router = arms[i].Router
		cfg.Resilience.MaxRetries = 3
		cfg.Resilience.Faults = hazardPlanes()
		plan := &servesim.HazardPlan{SDCRate: 0.001}
		if arms[i].Detect {
			plan.VerifyTrials = 8
			plan.DetectThreshold = 1.25
			plan.QuarantineRepair = 4
		}
		cfg.Resilience.Hazards = plan
		rep, err := servesim.Run(cfg, w)
		if err != nil {
			return servesim.SweepPoint{}, err
		}
		return servesim.SweepPoint{RatePerSec: w.RatePerSec, Report: rep}, nil
	})
}

// HazardStudyResult returns the composed-hazard grid as a structured
// table.
func HazardStudyResult(seed int64, quick bool) (*results.Table, error) {
	pts, err := HazardStudy(seed, quick)
	if err != nil {
		return nil, err
	}
	arms := hazardArms()
	t := results.NewTable("Serving: plane degradation + SDC per router, detection off vs on (2P+4D, 5 req/s, d1 at 2/8 planes 4-16s, 0.1% SDC)",
		results.C("Router"), results.C("Detect"),
		results.C("SDC steps"), results.C("Caught"), results.C("Corrupt resp"),
		results.C("Gray drains"), results.C("Failed"),
		results.CU("Recovery", "s"), results.CU("SLO faulted", "%"),
		results.CU("Goodput", "req/s"), results.CU("E2E p99", "s"))
	for i, p := range pts {
		r := p.Report
		det := "off"
		if arms[i].Detect {
			det = "on"
		}
		rec := results.NA()
		var recSum float64
		var recN int
		for _, inc := range r.Incidents {
			if inc.Kind == "sdc" && inc.Recovery > 0 {
				recSum += inc.Recovery
				recN++
			}
		}
		if recN > 0 {
			rec = results.Float("%.2f", recSum/float64(recN))
		}
		t.Row(results.Str(arms[i].Router.String()), results.Str(det),
			results.Int(r.CorruptSteps), results.Int(r.SDCDetected), results.Int(r.CorruptResponses),
			results.Int(r.GrayDrained), results.Int(r.Failed),
			rec, results.Float("%.1f%%", r.SLOFaulted*100),
			results.Float("%.2f", r.GoodputRPS), results.Float("%.2f", r.E2E.P99))
	}
	return t, nil
}

// hedgeArm is one hedging policy of the tail-tolerance shoot-out.
type hedgeArm struct {
	Name  string
	Hedge servesim.HedgePolicy
}

func hedgeArms() []hedgeArm {
	return []hedgeArm{
		{"no hedge", servesim.HedgePolicy{}},
		{"fixed 4s", servesim.HedgePolicy{Delay: 4}},
		{"fixed 7s", servesim.HedgePolicy{Delay: 7}},
		{"p95 (floor 4s)", servesim.HedgePolicy{Delay: 4, TrackP95: true}},
	}
}

// HedgeStudy pits hedging policies against a permanent gray straggler:
// decode instance 1 loses 7 of 8 planes at t=2s and never heals, so
// every EP all-to-all leg there runs at 8x latency for the whole run.
// Hedging fires a speculative duplicate to a different instance after
// the delay; first finisher wins, the loser is cancelled and its
// generated tokens charged as waste. Tighter delays buy more tail
// latency for more duplicated work — the classic tail-at-scale trade,
// measured here without any detection stack.
func HedgeStudy(seed int64, quick bool) ([]servesim.SweepPoint, error) {
	arms := hedgeArms()
	w := servingWorkload(quick)
	w.RatePerSec = 4
	return parallel.Map(len(arms), func(i int) (servesim.SweepPoint, error) {
		cfg := servesim.V3ServeConfig()
		cfg.Seed = seed
		cfg.KV.HBM.CapacityBytes = 2 * units.GB / 5
		cfg.Resilience.MaxRetries = 3
		cfg.Resilience.Faults = &servesim.FaultPlan{Events: []servesim.FaultEvent{
			{At: 2, Kind: servesim.FaultDegrade, Instance: 1, FailedPlanes: 7, TotalPlanes: 8},
		}}
		cfg.Resilience.Hedge = arms[i].Hedge
		rep, err := servesim.Run(cfg, w)
		if err != nil {
			return servesim.SweepPoint{}, err
		}
		return servesim.SweepPoint{RatePerSec: w.RatePerSec, Report: rep}, nil
	})
}

// HedgeStudyResult returns the hedging shoot-out as a structured table.
func HedgeStudyResult(seed int64, quick bool) (*results.Table, error) {
	pts, err := HedgeStudy(seed, quick)
	if err != nil {
		return nil, err
	}
	arms := hedgeArms()
	t := results.NewTable("Serving: hedged requests vs a permanent gray straggler (2P+4D, 4 req/s, d1 at 1/8 planes from t=2s)",
		results.C("Policy"), results.CU("E2E p50", "s"), results.CU("E2E p95", "s"),
		results.CU("E2E p99", "s"), results.CU("Goodput", "req/s"),
		results.C("Hedges"), results.C("Wins"), results.CU("Wasted", "tok"),
		results.CU("SLO", "%"))
	for i, p := range pts {
		r := p.Report
		t.Row(results.Str(arms[i].Name),
			results.Float("%.2f", r.E2E.P50), results.Float("%.2f", r.E2E.P95),
			results.Float("%.2f", r.E2E.P99), results.Float("%.2f", r.GoodputRPS),
			results.Int(r.Hedges), results.Int(r.HedgeWins), results.Int(r.HedgeWastedTokens),
			results.Float("%.1f%%", r.SLOAttainment*100))
	}
	return t, nil
}
