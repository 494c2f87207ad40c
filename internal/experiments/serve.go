package experiments

import (
	"fmt"

	"dsv3/internal/mtp"
	"dsv3/internal/parallel"
	"dsv3/internal/results"
	"dsv3/internal/servesim"
	"dsv3/internal/units"
)

// serveStudy is one serving experiment: every arm starts from
// V3ServeConfig() with the study seed, applies base and then its own
// set, runs once (or, with a planner, bisects to its capacity knee) and
// emits one row from cols. Arms fan out on the worker pool, so a
// study's table is byte-identical for any worker count.
type serveStudy struct {
	title    string
	workload servesim.Workload
	base     func(*servesim.Config) // optional edit every arm shares
	arms     []serveArm
	planner  *servesim.CapacityPlanner // set to search each arm's knee
	cols     []serveCol
	eng      *servesim.Engine // runs a single-arm study without a planner on this engine, observers attached
}

// serveArm is one row of a study: the cells that describe it and the
// config/workload edit that defines it. An arm that needs its own
// traffic derives its seed inside set; every other arm runs the study
// seed, so arms compare on identical traffic.
type serveArm struct {
	label []results.Cell
	set   func(*servesim.Config, *servesim.Workload)
}

// servePoint is what one arm produced: the offered rate, the run's
// report and, for planner studies, the capacity knee (whose report
// rep is).
type servePoint struct {
	arm  serveArm
	rate float64
	rep  *servesim.Report
	knee *servesim.CapacityResult
}

// serveCol is one table column and the cell it reads from a point.
type serveCol struct {
	results.Column
	cell func(servePoint) results.Cell
}

// run executes every arm and tabulates the points.
func (s serveStudy) run(seed int64) (*results.Table, error) {
	pts, err := s.points(seed)
	if err != nil {
		return nil, err
	}
	return tabulate(s.title, pts, s.cols, nil, nil), nil
}

// points executes every arm. Each worker runs its arms on one reused
// engine, or on s.eng when set (a single-arm study without a planner).
func (s serveStudy) points(seed int64) ([]servePoint, error) {
	newEng := servesim.NewEngine
	if s.eng != nil {
		newEng = func() *servesim.Engine { return s.eng }
	}
	return parallel.MapScratch(len(s.arms), newEng, func(i int, eng *servesim.Engine) (servePoint, error) {
		cfg, w := servesim.V3ServeConfig(), s.workload
		cfg.Seed = seed
		if s.base != nil {
			s.base(&cfg)
		}
		s.arms[i].set(&cfg, &w)
		p := servePoint{arm: s.arms[i], rate: w.RatePerSec}
		var err error
		if s.planner != nil {
			if p.knee, err = s.planner.Find(cfg, w); err == nil {
				p.rep = p.knee.Report
			}
		} else {
			p.rep, err = eng.Run(cfg, w)
		}
		return p, err
	})
}

// tabulate renders one table. Each point yields one row per record
// that rows passes on (one row when rows is nil): the cells of cols for
// the point, then the record's own cells under extra.
func tabulate(title string, pts []servePoint, cols []serveCol, extra []results.Column, rows func(servePoint, func(...results.Cell))) *results.Table {
	header := make([]results.Column, 0, len(cols)+len(extra))
	for _, c := range cols {
		header = append(header, c.Column)
	}
	t := results.NewTable(title, append(header, extra...)...)
	for _, p := range pts {
		row := func(record ...results.Cell) {
			cells := make([]results.Cell, 0, len(cols)+len(record))
			for _, c := range cols {
				cells = append(cells, c.cell(p))
			}
			t.Row(append(cells, record...)...)
		}
		if rows == nil {
			row()
		} else {
			rows(p, row)
		}
	}
	return t
}

// label is the column showing cell k of each arm's label.
func label(k int, col results.Column) serveCol {
	return serveCol{col, func(p servePoint) results.Cell { return p.arm.label[k] }}
}

// reportCol is a column that formats one float read from the report.
func reportCol(col results.Column, format string, v func(*servesim.Report) float64) serveCol {
	return serveCol{col, func(p servePoint) results.Cell { return results.Float(format, v(p.rep)) }}
}

// countCol is a column that shows one count read from the report.
func countCol(col results.Column, v func(*servesim.Report) int) serveCol {
	return serveCol{col, func(p servePoint) results.Cell { return results.Int(v(p.rep)) }}
}

// The columns two or more studies share, each in the format the golden
// corpus pins.
var (
	colRate      = serveCol{results.CU("Rate", "req/s"), func(p servePoint) results.Cell { return results.Float("%.0f", p.rate) }}
	colTTFT50    = reportCol(results.CU("TTFT p50", "ms"), "%.0f", func(r *servesim.Report) float64 { return r.TTFT.P50 * 1e3 })
	colTTFT99    = reportCol(results.CU("TTFT p99", "ms"), "%.0f", func(r *servesim.Report) float64 { return r.TTFT.P99 * 1e3 })
	colTPOT50    = reportCol(results.CU("TPOT p50", "ms"), "%.2f", func(r *servesim.Report) float64 { return r.TPOT.P50 * 1e3 })
	colTPOT99    = reportCol(results.CU("TPOT p99", "ms"), "%.2f", func(r *servesim.Report) float64 { return r.TPOT.P99 * 1e3 })
	colE2E99     = reportCol(results.CU("E2E p99", "s"), "%.2f", func(r *servesim.Report) float64 { return r.E2E.P99 })
	colGoodput   = reportCol(results.CU("Goodput", "req/s"), "%.2f", func(r *servesim.Report) float64 { return r.GoodputRPS })
	colSLO       = reportCol(results.CU("SLO", "%"), "%.1f%%", func(r *servesim.Report) float64 { return r.SLOAttainment * 100 })
	colSLOFault  = reportCol(results.CU("SLO faulted", "%"), "%.1f%%", func(r *servesim.Report) float64 { return r.SLOFaulted * 100 })
	colBatch     = reportCol(results.C("Batch"), "%.1f", func(r *servesim.Report) float64 { return r.MeanBatch })
	colKVPeak    = reportCol(results.CU("KV peak", "%"), "%.1f%%", func(r *servesim.Report) float64 { return r.PeakKVOccupancy * 100 })
	colPreempt   = countCol(results.C("Preempt"), func(r *servesim.Report) int { return r.Preemptions })
	colFailed    = countCol(results.C("Failed"), func(r *servesim.Report) int { return r.Failed })
	colSLOAtKnee = serveCol{results.CU("SLO@knee", "%"), func(p servePoint) results.Cell { return results.Float("%.1f%%", p.knee.Attainment*100) }}
	colProbes    = serveCol{results.C("Probes"), func(p servePoint) results.Cell { return results.Int(len(p.knee.Probes)) }}
	// A search that never broke the SLO stopped at the planner's rate
	// ceiling: its knee is a lower bound, not a measurement.
	colKnee = serveCol{results.CU("Knee", "req/s"), func(p servePoint) results.Cell {
		if p.knee.Saturated {
			return results.Str(fmt.Sprintf(">=%.2f (search ceiling)", p.knee.MaxRate))
		}
		return results.Float("%.2f", p.knee.MaxRate)
	}}

	colCompleted   = countCol(results.C("Completed"), func(r *servesim.Report) int { return r.Completed })
	colShed        = countCol(results.C("Shed"), func(r *servesim.Report) int { return r.Shed })
	colAffected    = countCol(results.C("Affected"), func(r *servesim.Report) int { return r.AffectedRequests })
	colRetryAmp    = reportCol(results.C("Retry amp"), "%.3f", func(r *servesim.Report) float64 { return r.RetryAmplification })
	colKVLost      = countCol(results.CU("KV lost", "tok"), func(r *servesim.Report) int { return r.KVTokensLost })
	colSLOHealthy  = reportCol(results.CU("SLO healthy", "%"), "%.1f%%", func(r *servesim.Report) float64 { return r.SLOHealthy * 100 })
	colOffloads    = countCol(results.C("Offloads"), func(r *servesim.Report) int { return r.KVOffloads })
	colSDCSteps    = countCol(results.C("SDC steps"), func(r *servesim.Report) int { return r.CorruptSteps })
	colCaught      = countCol(results.C("Caught"), func(r *servesim.Report) int { return r.SDCDetected })
	colCorruptResp = countCol(results.C("Corrupt resp"), func(r *servesim.Report) int { return r.CorruptResponses })
	colGrayDrains  = countCol(results.C("Gray drains"), func(r *servesim.Report) int { return r.GrayDrained })
	colHedges      = countCol(results.C("Hedges"), func(r *servesim.Report) int { return r.Hedges })
	colWins        = countCol(results.C("Wins"), func(r *servesim.Report) int { return r.HedgeWins })
	colWasted      = countCol(results.CU("Wasted", "tok"), func(r *servesim.Report) int { return r.HedgeWastedTokens })
)

// rateArms sweeps the arrival rate, one arm per rate.
func rateArms(rates ...float64) []serveArm {
	arms := make([]serveArm, len(rates))
	for i, rate := range rates {
		arms[i].set = func(_ *servesim.Config, w *servesim.Workload) { w.RatePerSec = rate }
	}
	return arms
}

// ownSeeds gives arm i its own traffic: the seed DeriveSeed(seed, i).
func ownSeeds(arms []serveArm) []serveArm {
	for i, a := range arms {
		arms[i].set = func(c *servesim.Config, w *servesim.Workload) {
			c.Seed = parallel.DeriveSeed(c.Seed, i)
			a.set(c, w)
		}
	}
	return arms
}

// routerArms runs one arm per router policy.
func routerArms() []serveArm {
	var arms []serveArm
	for _, p := range servesim.RouterPolicies() {
		arms = append(arms, serveArm{[]results.Cell{results.Str(p.String())},
			func(c *servesim.Config, _ *servesim.Workload) { c.Fleet.Router = p }})
	}
	return arms
}

// servingWorkload is the reference traffic shape shared by the serving
// experiments: Poisson arrivals at rate, heavy-tailed ~1K-token prompts
// and ~512-token outputs.
func servingWorkload(quick bool, rate float64) servesim.Workload {
	requests := 400
	if quick {
		requests = 150
	}
	return servesim.Workload{
		Arrival:    servesim.ArrivalPoisson,
		RatePerSec: rate,
		Requests:   requests,
		Prompt:     servesim.LogNormal(1024, 0.5),
		Output:     servesim.LogNormal(512, 0.5),
	}
}

// capacityPlanner is the knee search of the planner studies; quick mode
// bisects to a coarser tolerance.
func capacityPlanner(quick bool) *servesim.CapacityPlanner {
	planner := servesim.DefaultCapacityPlanner()
	if quick {
		planner.Tolerance = 0.08
	}
	return &planner
}

// serveLoadStudy drives the reference disaggregated deployment
// (2 prefill + 4 decode instances) across arrival rates and reports
// request-level latency percentiles, goodput and KV pressure — the
// "serving heavy traffic" view of the §2.3.2 decode analysis.
func serveLoadStudy(quick bool) serveStudy {
	rates := []float64{2, 4, 6, 8}
	if quick {
		rates = []float64{4, 8}
	}
	return serveStudy{
		title:    "Serving: Poisson load sweep on 2 prefill + 4 decode instances (V3 latency model, paper §2.3.2 step ceiling)",
		workload: servingWorkload(quick, 0),
		arms:     ownSeeds(rateArms(rates...)),
		cols:     []serveCol{colRate, colTTFT50, colTTFT99, colTPOT50, colTPOT99, colE2E99, colGoodput, colSLO, colBatch, colKVPeak},
	}
}

// disaggStudy compares colocated continuous batching against
// disaggregated prefill:decode splits at a high arrival rate on a
// KV-constrained 8-instance cluster. Colocation must pick an
// interference policy — aggressive prefill admission inflates TPOT,
// decode-protective admission starves TTFT — while a balanced
// disaggregated ratio protects both, which is the qualitative argument
// for the paper's disaggregated production deployment.
func disaggStudy(quick bool) serveStudy {
	deploy := func(name string, colocated bool, stride, prefill, decode int) serveArm {
		return serveArm{[]results.Cell{results.Str(name)}, func(c *servesim.Config, _ *servesim.Workload) {
			c.Fleet.Colocated = colocated
			if stride > 0 {
				c.Fleet.ColocatedStride = stride
			}
			c.Fleet.PrefillInstances, c.Fleet.DecodeInstances = prefill, decode
		}}
	}
	return serveStudy{
		title:    "Serving: prefill:decode disaggregation vs colocation (8 instances, 12 req/s, 2 GB KV/instance)",
		workload: servingWorkload(quick, 12),
		base:     func(c *servesim.Config) { c.KV.HBM.CapacityBytes = 2 * units.GB },
		// Colocation under both interference policies, then the
		// prefill:decode ratio sweep.
		arms: ownSeeds([]serveArm{
			deploy("colocated 8x (aggressive, stride 4)", true, 4, 4, 4),
			deploy("colocated 8x (protective, stride 128)", true, 128, 4, 4),
			deploy("disaggregated 2P:6D", false, 0, 2, 6),
			deploy("disaggregated 3P:5D", false, 0, 3, 5),
			deploy("disaggregated 4P:4D", false, 0, 4, 4),
			deploy("disaggregated 5P:3D", false, 0, 5, 3),
		}),
		cols: []serveCol{label(0, results.C("Deployment")), colTTFT50, colTTFT99, colTPOT50, colTPOT99, colGoodput, colSLO, colPreempt},
	}
}

// specStudy measures what §2.3.3's MTP acceptance rates buy at the
// serving level: tokens per step, TPOT and goodput on the reference
// deployment under fixed load.
func specStudy(quick bool) serveStudy {
	arms := []serveArm{{[]results.Cell{results.Str("no MTP"), results.NA()}, func(*servesim.Config, *servesim.Workload) {}}}
	for _, a := range []struct {
		name       string
		acceptance float64
	}{{"MTP k=1, accept 70%", 0.70}, {"MTP k=1, accept 85% (paper)", 0.85}, {"MTP k=1, accept 95%", 0.95}} {
		spec := mtp.V3Config()
		spec.Acceptance = a.acceptance
		arms = append(arms, serveArm{
			[]results.Cell{results.Str(a.name), results.Float("%.3f", spec.ExpectedTokensPerStep())},
			func(c *servesim.Config, _ *servesim.Workload) { s := spec; c.MTP = &s },
		})
	}
	return serveStudy{
		title:    "Serving: MTP speculative decoding under load (2P+4D, 6 req/s; paper §2.3.3: 80-90% acceptance -> 1.8x)",
		workload: servingWorkload(quick, 6),
		arms:     ownSeeds(arms),
		cols: []serveCol{label(0, results.C("Config")),
			reportCol(results.C("Tokens/step"), "%.3f", func(r *servesim.Report) float64 { return r.TokensPerStep }),
			label(1, results.C("E[tokens/step]")), colTPOT50, colTPOT99, colTTFT99, colGoodput, colSLO},
	}
}

// routerStudy compares the pluggable routing policies at a fixed
// arrival rate on a KV-constrained reference fleet. Every arm runs the
// identical traffic (same seed), so the only independent variable is
// the policy applied to prefill dispatch and the prefill->decode
// hand-off.
func routerStudy(quick bool) serveStudy {
	return serveStudy{
		title:    "Serving: router policy shoot-out (2P+4D, 7 req/s, 0.4 GB KV/instance, identical traffic per arm)",
		workload: servingWorkload(quick, 7),
		base:     func(c *servesim.Config) { c.KV.HBM.CapacityBytes = 2 * units.GB / 5 },
		arms:     routerArms(),
		cols:     []serveCol{label(0, results.C("Router")), colTTFT50, colTTFT99, colTPOT50, colTPOT99, colGoodput, colSLO, colPreempt, colKVPeak},
	}
}

// capacityStudy bisects each (fleet shape, router) arm to its maximum
// sustainable Poisson rate at 90% SLO attainment — the goodput knee
// the paper's disaggregated deployment is sized against. Arms fan out
// over the worker pool; each planner runs sequentially inside its arm
// with a seed derived per fleet shape, so the knees are byte-identical
// for any worker count and the two routers on a shape see identical
// traffic.
func capacityStudy(quick bool) serveStudy {
	shapes := []struct {
		name            string
		prefill, decode int
	}{{"2P:4D", 2, 4}, {"3P:5D", 3, 5}, {"4P:4D", 4, 4}}
	w := servingWorkload(quick, 0)
	w.Requests = 250
	if quick {
		shapes = shapes[:2]
		w.Requests = 120
	}
	var arms []serveArm
	for si, s := range shapes {
		for _, p := range []servesim.RouterPolicy{servesim.RouteLeastKV, servesim.RoutePowerOfTwo} {
			arms = append(arms, serveArm{[]results.Cell{results.Str(s.name), results.Str(p.String())},
				func(c *servesim.Config, _ *servesim.Workload) {
					c.Seed = parallel.DeriveSeed(c.Seed, si)
					c.Fleet.PrefillInstances, c.Fleet.DecodeInstances = s.prefill, s.decode
					c.Fleet.Router = p
				}})
		}
	}
	return serveStudy{
		title:    "Serving: SLO capacity knee per fleet shape and router (90% attainment target, 0.4 GB KV/instance)",
		workload: w,
		base:     func(c *servesim.Config) { c.KV.HBM.CapacityBytes = 2 * units.GB / 5 },
		arms:     arms,
		planner:  capacityPlanner(quick),
		cols:     []serveCol{label(0, results.C("Fleet")), label(1, results.C("Router")), colKnee, colSLOAtKnee, colGoodput, colTTFT99, colTPOT99, colPreempt, colProbes},
	}
}

// failurePlan is the incident replayed by the serve-failure study:
// decode instance 1 crashes mid-run and is repaired 8 seconds later.
// The window is short enough that even the quick workload (150 requests
// at 5 req/s, ~30 s of traffic) sees both the degraded epoch and the
// post-repair recovery.
func failurePlan() *servesim.FaultPlan {
	return &servesim.FaultPlan{
		Events: []servesim.FaultEvent{
			{At: 6, Kind: servesim.FaultCrash, Instance: 1},
			{At: 14, Kind: servesim.FaultRecover, Instance: 1},
		},
	}
}

// failureStudy replays the same kill-an-instance incident across every
// router policy: identical traffic per arm (same seed), a decode crash
// at t=6s with repair at t=14s, and three retries per orphaned request.
// The routers differ in how much work they concentrate on the doomed
// instance, so blast radius, retry amplification and recovery time all
// vary by policy — the incident-replay view of the paper's
// availability-under-component-failure concern.
func failureStudy(quick bool) serveStudy {
	return serveStudy{
		title:    "Serving: kill-an-instance incident replay per router (2P+4D, 5 req/s, d1 down 6-14s, retries 3x backoff 0.25s)",
		workload: servingWorkload(quick, 5),
		base: func(c *servesim.Config) {
			c.KV.HBM.CapacityBytes = 2 * units.GB / 5
			c.Resilience.Faults = failurePlan()
			c.Resilience.MaxRetries = 3
		},
		arms: routerArms(),
		cols: []serveCol{label(0, results.C("Router")), colAffected, colFailed, colRetryAmp, colKVLost,
			serveCol{results.CU("Recovery", "s"), func(p servePoint) results.Cell {
				if len(p.rep.Incidents) == 0 {
					return results.NA()
				}
				return results.Float("%.2f", p.rep.Incidents[0].Recovery)
			}},
			colSLOHealthy, colSLOFault, colGoodput, colTTFT99},
	}
}

// shedStudy pits admission policies against a diurnal overload ramp:
// mean 8 req/s swinging +-90% over the cycle, so the peak (~15 req/s)
// is far past the KV-constrained fleet's knee. Admit-all lets queues
// and TTFT collapse for everyone; the shedding policies trade a known
// fraction of rejected requests for bounded latency on the admitted
// ones — graceful degradation instead of congestion collapse.
func shedStudy(quick bool) serveStudy {
	w := servingWorkload(quick, 8)
	w.Arrival = servesim.ArrivalDiurnal
	w.DiurnalPeriod = 24
	w.DiurnalAmplitude = 0.9
	var arms []serveArm
	for _, a := range []struct {
		name      string
		admission servesim.AdmissionPolicy
	}{
		{"admit-all", servesim.AdmissionPolicy{}},
		{"queue<=24", servesim.AdmissionPolicy{MaxQueueDepth: 24}},
		{"kv<=85%", servesim.AdmissionPolicy{MaxKVOccupancy: 0.85}},
		{"queue<=24 + kv<=85%", servesim.AdmissionPolicy{MaxQueueDepth: 24, MaxKVOccupancy: 0.85}},
	} {
		arms = append(arms, serveArm{[]results.Cell{results.Str(a.name)},
			func(c *servesim.Config, _ *servesim.Workload) { c.Resilience.Admission = a.admission }})
	}
	return serveStudy{
		title:    "Serving: admission policy shoot-out under diurnal overload (2P+4D, mean 8 req/s +-90%, 0.4 GB KV/instance)",
		workload: w,
		base:     func(c *servesim.Config) { c.KV.HBM.CapacityBytes = 2 * units.GB / 5 },
		arms:     arms,
		cols: []serveCol{label(0, results.C("Admission")), colShed,
			reportCol(results.CU("Shed", "%"), "%.1f%%", func(r *servesim.Report) float64 {
				if r.Requests == 0 {
					return 0
				}
				return float64(r.Shed) / float64(r.Requests) * 100
			}),
			colTTFT50, colTTFT99, colGoodput, colSLO, colPreempt, colKVPeak},
	}
}

// kvTierHierarchy is the below-HBM hierarchy every tiered arm shares:
// host DRAM over PCIe-class bandwidth, then a pooled flash tier with
// 10x the capacity at a tenth of the bandwidth and a flash-scale
// per-chunk access latency (the Ma & Patterson "high-bandwidth flash"
// shape).
func kvTierHierarchy() []servesim.KVTierConfig {
	return []servesim.KVTierConfig{
		{Name: "dram", CapacityBytes: 8 * units.GB, ReadBW: 24 * units.GB, WriteBW: 16 * units.GB, ChunkLatency: 50 * units.Microsecond},
		{Name: "flash", CapacityBytes: 64 * units.GB, ReadBW: 6 * units.GB, WriteBW: 3 * units.GB, ChunkLatency: 400 * units.Microsecond},
	}
}

// kvTierWorkload is the multi-turn session traffic the frontier is
// measured under: Poisson session starts, 3 turns per session with a
// 2 s mean think time, and prompts that grow by the full prior context
// each turn — the returning-user traffic a prefix cache exists for.
func kvTierWorkload(quick bool) servesim.Workload {
	w := servesim.Workload{
		Arrival:    servesim.ArrivalPoisson,
		RatePerSec: 4,
		Requests:   300,
		// Narrow uniform lengths keep the single worst-case session close
		// to the mean, so the HBM pool can be sized tight enough that KV
		// pressure (not prefill latency) binds first — the regime the
		// hierarchy exists for.
		Prompt:    servesim.LengthDist{Kind: servesim.DistUniform, Mean: 256, Min: 192, Max: 320},
		Output:    servesim.LengthDist{Kind: servesim.DistUniform, Mean: 256, Min: 192, Max: 320},
		Turns:     3,
		ThinkTime: 2,
	}
	if quick {
		w.Requests = 120
	}
	return w
}

// kvTierBase starves HBM so KV pressure binds first, under an
// interactive first-token SLO: the study measures how the hierarchy
// relieves KV pressure, and both relief paths (recompute prefill vs
// prefix-hit reload) surface in TTFT. A TPOT-bound SLO would hide them
// behind decode step time.
func kvTierBase(c *servesim.Config) {
	c.KV.HBM.CapacityBytes = 2 * units.GB / 25
	c.SLO = servesim.SLO{TTFT: 0.4, TPOT: 50 * units.Millisecond}
}

// kvTierStudy bisects each KV-hierarchy arm to its maximum sustainable
// session rate at 90% SLO attainment under multi-turn traffic on an
// HBM-starved fleet. The HBM-only baseline relieves KV pressure by
// recompute preemption; the tiered arms offload cold contexts to
// DRAM/flash and reload them, and cache each session's grown prefix so
// later turns skip the cached prefill — the capacity/TTFT frontier vs
// chunk size the ROADMAP's LMCache-style sweep asks for. Every arm
// runs the same seed, so the offered sessions are identical.
func kvTierStudy(quick bool) serveStudy {
	arms := []serveArm{{[]results.Cell{results.Str("hbm-only (recompute)"), results.NA()}, func(*servesim.Config, *servesim.Workload) {}}}
	for _, chunk := range []int{64, 256, 1024} {
		arms = append(arms, serveArm{[]results.Cell{results.Str("dram+flash"), results.Int(chunk)},
			func(c *servesim.Config, _ *servesim.Workload) {
				c.KV.ChunkTokens = chunk
				c.KV.Tiers = kvTierHierarchy()
				c.KV.PrefixCache = true
			}})
	}
	return serveStudy{
		title:    "Serving: tiered KV offload + prefix cache capacity frontier (0.08 GB HBM/instance, 3-turn sessions, 90% SLO target)",
		workload: kvTierWorkload(quick),
		base:     kvTierBase,
		arms:     arms,
		planner:  capacityPlanner(quick),
		cols: []serveCol{label(0, results.C("Hierarchy")), label(1, results.CU("Chunk", "tok")), colKnee, colSLOAtKnee, colTTFT99,
			serveCol{results.CU("Hit rate", "%"), func(p servePoint) results.Cell {
				if lookups := p.rep.PrefixHits + p.rep.PrefixMisses; lookups > 0 {
					return results.Float("%.1f%%", 100*float64(p.rep.PrefixHits)/float64(lookups))
				}
				return results.NA()
			}},
			reportCol(results.CU("Reload stall", "s"), "%.2f", func(r *servesim.Report) float64 { return r.ReloadStall }),
			colOffloads, colPreempt,
			serveCol{results.CU("HBM out", "GB"), func(p servePoint) results.Cell {
				if len(p.rep.KVTierMoves) == 0 {
					return results.NA()
				}
				return results.Float("%.2f", p.rep.KVTierMoves[0].BytesOut/units.GB)
			}}},
	}
}

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

// fleetStudy runs the 1000-instance deployment under one million
// Poisson requests per arrival rate. Quick mode runs the single
// reference rate; the full study adds a heavier point near the
// prefill-capacity knee.
func fleetStudy(quick bool) serveStudy {
	rates := []float64{11000, 12500}
	if quick {
		rates = rates[:1]
	}
	return serveStudy{
		title:    "Serving: 1000-instance fleet (600 prefill + 400 decode) under 1M Poisson requests",
		workload: FleetWorkload(0),
		base:     func(c *servesim.Config) { *c = FleetConfig(c.Seed) },
		arms:     rateArms(rates...),
		cols: []serveCol{colRate, colCompleted, colTTFT50, colTTFT99, colTPOT50, colTPOT99,
			reportCol(results.CU("Goodput", "req/s"), "%.1f", func(r *servesim.Report) float64 { return r.GoodputRPS }),
			colSLO, colBatch, colKVPeak},
	}
}

// hazardPlanes is the composed incident replayed by the serve-hazard
// study: decode instance 1 loses 6 of its 8 network planes at t=4s and
// gets them back at t=16s. Unlike a crash, the instance keeps serving —
// its EP all-to-all legs just run at 4x the latency, the gray-failure
// mode the paper's multi-plane fabric turns hard failures into.
func hazardPlanes() *servesim.FaultPlan {
	return &servesim.FaultPlan{Events: []servesim.FaultEvent{
		{At: 4, Kind: servesim.FaultDegrade, Instance: 1, FailedPlanes: 6, TotalPlanes: 8},
		{At: 16, Kind: servesim.FaultHeal, Instance: 1},
	}}
}

// hazardStudy replays the same composed incident — a plane-degraded
// decode instance plus a 0.1% silent-corruption rate on decode steps —
// across every router policy, with and without the detection stack
// (Freivalds verification + EWMA gray-failure draining). Without
// detection, corrupted steps taint every request in the batch and the
// degraded straggler keeps taking traffic; with it, verification
// converts corruption into retryable quarantines and the EWMA detector
// drains the straggler, trading a little verify latency and some
// retries for clean responses.
func hazardStudy(quick bool) serveStudy {
	var arms []serveArm
	for _, detect := range []string{"off", "on"} {
		for _, r := range routerArms() {
			arms = append(arms, serveArm{append(r.label, results.Str(detect)), func(c *servesim.Config, w *servesim.Workload) {
				r.set(c, w)
				plan := &servesim.HazardPlan{SDCRate: 0.001}
				if detect == "on" {
					plan.VerifyTrials = 8
					plan.DetectThreshold = 1.25
					plan.QuarantineRepair = 4
				}
				c.Resilience.Hazards = plan
			}})
		}
	}
	return serveStudy{
		title:    "Serving: plane degradation + SDC per router, detection off vs on (2P+4D, 5 req/s, d1 at 2/8 planes 4-16s, 0.1% SDC)",
		workload: servingWorkload(quick, 5),
		base: func(c *servesim.Config) {
			c.KV.HBM.CapacityBytes = 2 * units.GB / 5
			c.Resilience.MaxRetries = 3
			c.Resilience.Faults = hazardPlanes()
		},
		arms: arms,
		cols: []serveCol{label(0, results.C("Router")), label(1, results.C("Detect")),
			colSDCSteps, colCaught, colCorruptResp, colGrayDrains, colFailed,
			serveCol{results.CU("Recovery", "s"), func(p servePoint) results.Cell {
				var sum float64
				var n int
				for _, inc := range p.rep.Incidents {
					if inc.Kind == "sdc" && inc.Recovery > 0 {
						sum += inc.Recovery
						n++
					}
				}
				if n == 0 {
					return results.NA()
				}
				return results.Float("%.2f", sum/float64(n))
			}},
			colSLOFault, colGoodput, colE2E99},
	}
}

// hedgeStudy pits hedging policies against a permanent gray straggler:
// decode instance 1 loses 7 of 8 planes at t=2s and never heals, so
// every EP all-to-all leg there runs at 8x latency for the whole run.
// Hedging fires a speculative duplicate to a different instance after
// the delay; first finisher wins, the loser is cancelled and its
// generated tokens charged as waste. Tighter delays buy more tail
// latency for more duplicated work — the classic tail-at-scale trade,
// measured here without any detection stack.
func hedgeStudy(quick bool) serveStudy {
	var arms []serveArm
	for _, a := range []struct {
		name  string
		hedge servesim.HedgePolicy
	}{
		{"no hedge", servesim.HedgePolicy{}},
		{"fixed 4s", servesim.HedgePolicy{Delay: 4}},
		{"fixed 7s", servesim.HedgePolicy{Delay: 7}},
		{"p95 (floor 4s)", servesim.HedgePolicy{Delay: 4, TrackP95: true}},
	} {
		arms = append(arms, serveArm{[]results.Cell{results.Str(a.name)},
			func(c *servesim.Config, _ *servesim.Workload) { c.Resilience.Hedge = a.hedge }})
	}
	return serveStudy{
		title:    "Serving: hedged requests vs a permanent gray straggler (2P+4D, 4 req/s, d1 at 1/8 planes from t=2s)",
		workload: servingWorkload(quick, 4),
		base: func(c *servesim.Config) {
			c.KV.HBM.CapacityBytes = 2 * units.GB / 5
			c.Resilience.MaxRetries = 3
			c.Resilience.Faults = &servesim.FaultPlan{Events: []servesim.FaultEvent{
				{At: 2, Kind: servesim.FaultDegrade, Instance: 1, FailedPlanes: 7, TotalPlanes: 8},
			}}
		},
		arms: arms,
		cols: []serveCol{label(0, results.C("Policy")),
			reportCol(results.CU("E2E p50", "s"), "%.2f", func(r *servesim.Report) float64 { return r.E2E.P50 }),
			reportCol(results.CU("E2E p95", "s"), "%.2f", func(r *servesim.Report) float64 { return r.E2E.P95 }),
			colE2E99, colGoodput, colHedges, colWins, colWasted, colSLO},
	}
}
