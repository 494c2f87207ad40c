package experiments

import (
	"dsv3/internal/parallel"
	"dsv3/internal/results"
	"dsv3/internal/servesim"
	"dsv3/internal/units"
)

// failurePlan is the incident replayed by FailureStudy: decode
// instance 1 crashes mid-run and is repaired 8 seconds later. The
// window is short enough that even the quick workload (150 requests at
// 5 req/s, ~30 s of traffic) sees both the degraded epoch and the
// post-repair recovery.
func failurePlan() *servesim.FaultPlan {
	return &servesim.FaultPlan{
		Events: []servesim.FaultEvent{
			{At: 6, Kind: servesim.FaultCrash, Instance: 1},
			{At: 14, Kind: servesim.FaultRecover, Instance: 1},
		},
	}
}

// FailureStudy replays the same kill-an-instance incident across every
// router policy: identical traffic per arm (same seed), a decode crash
// at t=6s with repair at t=14s, and the default retry policy. The
// routers differ in how much work they concentrate on the doomed
// instance, so blast radius, retry amplification and recovery time all
// vary by policy — the incident-replay view of the paper's
// availability-under-component-failure concern.
func FailureStudy(seed int64, quick bool) ([]servesim.SweepPoint, error) {
	arms := servesim.RouterPolicies()
	w := servingWorkload(quick)
	w.RatePerSec = 5
	return parallel.Map(len(arms), func(i int) (servesim.SweepPoint, error) {
		cfg := servesim.V3ServeConfig()
		cfg.Seed = seed
		cfg.KV.HBM.CapacityBytes = 2 * units.GB / 5
		cfg.Fleet.Router = arms[i]
		cfg.Resilience.Faults = failurePlan()
		cfg.Resilience.MaxRetries = 3
		rep, err := servesim.Run(cfg, w)
		if err != nil {
			return servesim.SweepPoint{}, err
		}
		return servesim.SweepPoint{RatePerSec: w.RatePerSec, Report: rep}, nil
	})
}

// FailureStudyResult returns the incident replay as a structured table.
func FailureStudyResult(seed int64, quick bool) (*results.Table, error) {
	pts, err := FailureStudy(seed, quick)
	if err != nil {
		return nil, err
	}
	arms := servesim.RouterPolicies()
	t := results.NewTable("Serving: kill-an-instance incident replay per router (2P+4D, 5 req/s, d1 down 6-14s, retries 3x backoff 0.25s)",
		results.C("Router"), results.C("Affected"), results.C("Failed"),
		results.C("Retry amp"), results.CU("KV lost", "tok"), results.CU("Recovery", "s"),
		results.CU("SLO healthy", "%"), results.CU("SLO faulted", "%"),
		results.CU("Goodput", "req/s"), results.CU("TTFT p99", "ms"))
	for i, p := range pts {
		r := p.Report
		rec := results.NA()
		if len(r.Incidents) > 0 {
			rec = results.Float("%.2f", r.Incidents[0].Recovery)
		}
		t.Row(results.Str(arms[i].String()),
			results.Int(r.AffectedRequests), results.Int(r.Failed),
			results.Float("%.3f", r.RetryAmplification), results.Int(r.KVTokensLost), rec,
			results.Float("%.1f%%", r.SLOHealthy*100), results.Float("%.1f%%", r.SLOFaulted*100),
			results.Float("%.2f", r.GoodputRPS), results.Float("%.0f", r.TTFT.P99*1e3))
	}
	return t, nil
}

// shedArm is one admission policy of the shedding shoot-out.
type shedArm struct {
	Name      string
	Admission servesim.AdmissionPolicy
}

func shedArms() []shedArm {
	return []shedArm{
		{"admit-all", servesim.AdmissionPolicy{}},
		{"queue<=24", servesim.AdmissionPolicy{MaxQueueDepth: 24}},
		{"kv<=85%", servesim.AdmissionPolicy{MaxKVOccupancy: 0.85}},
		{"queue<=24 + kv<=85%", servesim.AdmissionPolicy{MaxQueueDepth: 24, MaxKVOccupancy: 0.85}},
	}
}

// ShedStudy pits admission policies against a diurnal overload ramp:
// mean 8 req/s swinging +-90% over the cycle, so the peak (~15 req/s)
// is far past the KV-constrained fleet's knee. Admit-all lets queues
// and TTFT collapse for everyone; the shedding policies trade a known
// fraction of rejected requests for bounded latency on the admitted
// ones — graceful degradation instead of congestion collapse.
func ShedStudy(seed int64, quick bool) ([]servesim.SweepPoint, error) {
	arms := shedArms()
	w := servingWorkload(quick)
	w.Arrival = servesim.ArrivalDiurnal
	w.RatePerSec = 8
	w.DiurnalPeriod = 24
	w.DiurnalAmplitude = 0.9
	return parallel.Map(len(arms), func(i int) (servesim.SweepPoint, error) {
		cfg := servesim.V3ServeConfig()
		cfg.Seed = seed
		cfg.KV.HBM.CapacityBytes = 2 * units.GB / 5
		cfg.Resilience.Admission = arms[i].Admission
		rep, err := servesim.Run(cfg, w)
		if err != nil {
			return servesim.SweepPoint{}, err
		}
		return servesim.SweepPoint{RatePerSec: w.RatePerSec, Report: rep}, nil
	})
}

// ShedStudyResult returns the admission shoot-out as a structured
// table.
func ShedStudyResult(seed int64, quick bool) (*results.Table, error) {
	pts, err := ShedStudy(seed, quick)
	if err != nil {
		return nil, err
	}
	arms := shedArms()
	t := results.NewTable("Serving: admission policy shoot-out under diurnal overload (2P+4D, mean 8 req/s +-90%, 0.4 GB KV/instance)",
		results.C("Admission"), results.C("Shed"), results.CU("Shed", "%"),
		results.CU("TTFT p50", "ms"), results.CU("TTFT p99", "ms"),
		results.CU("Goodput", "req/s"), results.CU("SLO", "%"),
		results.C("Preempt"), results.CU("KV peak", "%"))
	for i, p := range pts {
		r := p.Report
		shedPct := 0.0
		if r.Requests > 0 {
			shedPct = float64(r.Shed) / float64(r.Requests) * 100
		}
		t.Row(results.Str(arms[i].Name),
			results.Int(r.Shed), results.Float("%.1f%%", shedPct),
			results.Float("%.0f", r.TTFT.P50*1e3), results.Float("%.0f", r.TTFT.P99*1e3),
			results.Float("%.2f", r.GoodputRPS), results.Float("%.1f%%", r.SLOAttainment*100),
			results.Int(r.Preemptions), results.Float("%.1f%%", r.PeakKVOccupancy*100))
	}
	return t, nil
}
