package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"dsv3/internal/experiments"
	"dsv3/internal/obs"
	"dsv3/internal/parallel"
	"dsv3/internal/servesim"
	"dsv3/internal/units"
)

const (
	// fleetRequests overrides only the request count of the shipped
	// fleet study (one million), so one iteration takes seconds.
	fleetRequests = 250_000
	// fleetRate is the study's reference arrival rate, req/s.
	fleetRate = 11000
	// sessionRequests is the requests per capacity probe. Tiered runs
	// hit "KV exhausted with no preemption victim" on some seeds, more
	// often the more requests they carry (see README.md): at 600, 3 of
	// 350 seeds tried fail; at 450, none of 600.
	sessionRequests = 450
)

// fleetInputs is the shipped 1000-instance deployment and its traffic.
// The benchmark never sets performance-only knobs (shards, scheduler):
// they come from experiments.FleetConfig, so a change to them shows on
// this workload without touching the benchmark.
func fleetInputs(seed int64) (servesim.Config, servesim.Workload) {
	w := experiments.FleetWorkload(fleetRate)
	w.Requests = fleetRequests
	return experiments.FleetConfig(seed), w
}

// sessionArm is one KV configuration the sessions workload searches.
type sessionArm struct {
	name string
	cfg  servesim.Config
}

// sessionArms is the serve-kvtier shape: the V3 serving fleet with
// 0.08 GB of HBM KV per instance and a 0.4 s TTFT SLO, once HBM-only
// (recompute preemption) and once over DRAM+flash at 256-token chunks
// with the session prefix cache.
func sessionArms(seed int64) []sessionArm {
	hbm := servesim.V3ServeConfig()
	hbm.Seed = seed
	hbm.KV.HBM.CapacityBytes = 2 * units.GB / 25
	hbm.SLO = servesim.SLO{TTFT: 0.4, TPOT: 50 * units.Millisecond}
	tiered := hbm
	tiered.KV.ChunkTokens = 256
	tiered.KV.PrefixCache = true
	tiered.KV.Tiers = []servesim.KVTierConfig{
		{Name: "dram", CapacityBytes: 8 * units.GB, ReadBW: 24 * units.GB, WriteBW: 16 * units.GB, ChunkLatency: 50 * units.Microsecond},
		{Name: "flash", CapacityBytes: 64 * units.GB, ReadBW: 6 * units.GB, WriteBW: 3 * units.GB, ChunkLatency: 400 * units.Microsecond},
	}
	return []sessionArm{{"hbm-only", hbm}, {"dram+flash", tiered}}
}

// sessionWorkload is open-loop Poisson session starts, 3 turns per
// session with a 2 s mean think time, prompts growing by the prior
// context each turn. The capacity planner overrides the rate.
func sessionWorkload() servesim.Workload {
	turnLen := servesim.LengthDist{Kind: servesim.DistUniform, Mean: 256, Min: 192, Max: 320}
	return servesim.Workload{
		Arrival:    servesim.ArrivalPoisson,
		RatePerSec: 4,
		Requests:   sessionRequests,
		Prompt:     turnLen,
		Output:     turnLen,
		Turns:      3,
		ThinkTime:  2,
	}
}

func setupFleet(seed int64) error {
	cfg, w := fleetInputs(seed)
	return validate(cfg, w)
}

func setupSessions(seed int64) error {
	w := sessionWorkload()
	for _, a := range sessionArms(seed) {
		if err := validate(a.cfg, w); err != nil {
			return fmt.Errorf("%s: %w", a.name, err)
		}
	}
	return servesim.DefaultCapacityPlanner().Validate()
}

func validate(cfg servesim.Config, w servesim.Workload) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	return w.Validate()
}

// checkReport verifies a serving report: every offered request is
// resolved exactly once and every latency is finite.
func checkReport(rep *servesim.Report, requests int) error {
	if rep.Requests != requests {
		return fmt.Errorf("report offers %d requests, workload %d", rep.Requests, requests)
	}
	if n := rep.Completed + rep.Failed + rep.Shed; n != rep.Requests {
		return fmt.Errorf("completed+failed+shed = %d, requests = %d", n, rep.Requests)
	}
	if rep.DroppedSamples != 0 {
		return fmt.Errorf("%d non-finite latency samples", rep.DroppedSamples)
	}
	for _, s := range []struct {
		name string
		v    []float64
	}{
		{"ttft", []float64{rep.TTFT.Min, rep.TTFT.Mean, rep.TTFT.P50, rep.TTFT.P95, rep.TTFT.P99, rep.TTFT.Max}},
		{"tpot", []float64{rep.TPOT.Min, rep.TPOT.Mean, rep.TPOT.P50, rep.TPOT.P95, rep.TPOT.P99, rep.TPOT.Max}},
		{"e2e", []float64{rep.E2E.Min, rep.E2E.Mean, rep.E2E.P50, rep.E2E.P95, rep.E2E.P99, rep.E2E.Max}},
		{"makespan", []float64{rep.Makespan}},
	} {
		for _, v := range s.v {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return fmt.Errorf("%s latency %v", s.name, v)
			}
		}
	}
	return nil
}

// digests remembers the first output digest under each key, so later
// runs of the same inputs can be checked for identical output.
type digests map[string]string

// check records v's digest under key, or compares it with the one
// recorded first.
func (d digests) check(key string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("%s: encoding output: %w", key, err)
	}
	sum := sha256.Sum256(b)
	got := hex.EncodeToString(sum[:])
	if want, ok := d[key]; ok && want != got {
		return fmt.Errorf("%s: output digest %.12s differs from the first run's %.12s", key, got, want)
	}
	d[key] = got
	return nil
}

// checkCapacity verifies a capacity search's knee report and that the
// whole result repeats across iterations.
func checkCapacity(key string, res *servesim.CapacityResult, requests int, sums digests) error {
	if res.Report == nil {
		return fmt.Errorf("%s: no report", key)
	}
	if err := checkReport(res.Report, requests); err != nil {
		return fmt.Errorf("%s: %w", key, err)
	}
	return sums.check(key, res)
}

func measureFleet(o options, t *tally) map[string]float64 {
	cfg, w := fleetInputs(o.seed)
	sums := digests{}
	var walls, rates, allocs []float64
	setup := measureLoop(o, t, func() {
		a0, t0 := allocMB(), time.Now()
		rep, err := servesim.Run(cfg, w)
		wall := time.Since(t0).Seconds()
		allocs = append(allocs, allocMB()-a0)
		walls = append(walls, wall)
		if err == nil {
			err = checkReport(rep, w.Requests)
		}
		if err == nil {
			err = sums.check("fleet report", rep)
		}
		resolved := 0
		if t.check("fleet servesim.Run", err) {
			resolved = rep.Requests
		}
		rates = append(rates, float64(resolved)/wall)
	})
	printSamples(map[string][]float64{"wall_s": walls, "sim_req_per_s": rates, "alloc_mb": allocs})
	return map[string]float64{
		"wall_s":        median(walls),
		"sim_req_per_s": median(rates),
		"setup_s":       setup,
		"alloc_mb":      median(allocs),
		"max_rss_mb":    selfMaxRSSMB(),
	}
}

func measureSessions(o options, t *tally) map[string]float64 {
	arms, w := sessionArms(o.seed), sessionWorkload()
	planner := servesim.DefaultCapacityPlanner()
	sums := digests{}
	var walls, rates, allocs []float64
	setup := measureLoop(o, t, func() {
		a0, t0 := allocMB(), time.Now()
		resolved := 0
		for _, a := range arms {
			res, err := planner.Find(a.cfg, w)
			if err == nil {
				err = checkCapacity(a.name, res, w.Requests, sums)
			}
			if t.check("sessions "+a.name+" CapacityPlanner.Find", err) {
				resolved += res.Iterations * w.Requests
			}
		}
		wall := time.Since(t0).Seconds()
		allocs = append(allocs, allocMB()-a0)
		walls = append(walls, wall)
		rates = append(rates, float64(resolved)/wall)
	})
	printSamples(map[string][]float64{"wall_s": walls, "sim_req_per_s": rates, "alloc_mb": allocs})
	return map[string]float64{
		"wall_s":        median(walls),
		"sim_req_per_s": median(rates),
		"setup_s":       setup,
		"alloc_mb":      median(allocs),
		"max_rss_mb":    selfMaxRSSMB(),
	}
}

// kvCounts sums the KV-hierarchy work of one or more runs.
type kvCounts struct {
	steps, preemptions, offloads, reloads, demotions, drops, hits, misses int
}

func (k *kvCounts) add(r *servesim.Report) {
	k.steps += r.DecodeSteps
	k.preemptions += r.Preemptions
	k.offloads += r.KVOffloads
	k.reloads += r.KVReloads
	k.demotions += r.TierDemotions
	k.drops += r.TierDrops
	k.hits += r.PrefixHits
	k.misses += r.PrefixMisses
}

func (k kvCounts) metrics(m map[string]metric) {
	set(m, "servesim.decode_steps", float64(k.steps))
	set(m, "servesim.preemptions", float64(k.preemptions))
	set(m, "servesim.kv_offloads", float64(k.offloads))
	set(m, "servesim.kv_reloads", float64(k.reloads))
	set(m, "servesim.tier_demotions", float64(k.demotions))
	set(m, "servesim.tier_drops", float64(k.drops))
	if lookups := k.hits + k.misses; lookups > 0 {
		set(m, "servesim.prefix_hit_ratio", float64(k.hits)/float64(lookups))
	}
}

// simMetrics reports the modelled outputs of one run: they depend only
// on the inputs, so any performance change must leave them identical.
func simMetrics(m map[string]metric, r *servesim.Report, knee float64) {
	set(m, "servesim.sim_ttft_p50_s", r.TTFT.P50)
	set(m, "servesim.sim_ttft_p99_s", r.TTFT.P99)
	set(m, "servesim.sim_tpot_p50_s", r.TPOT.P50)
	set(m, "servesim.sim_tpot_p99_s", r.TPOT.P99)
	set(m, "servesim.sim_goodput_rps", r.GoodputRPS)
	set(m, "servesim.sim_mean_batch", r.MeanBatch)
	set(m, "servesim.sim_makespan_s", r.Makespan)
	set(m, "servesim.sim_knee_rps", knee)
}

// pickSink keeps the timed Pick calls from being optimized away.
var pickSink int

// routerPickNS times the configured router's Pick over a candidate
// slice as wide as the decode pool, with loads drawn from seed, and
// returns the median ns per pick over a few repetitions.
func routerPickNS(cfg servesim.Config, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	loads := make([]servesim.InstanceLoad, cfg.Fleet.DecodeInstances)
	for i := range loads {
		loads[i] = servesim.InstanceLoad{Instance: i, Queue: rng.Intn(64), FreeKV: rng.Intn(4096)}
	}
	r := servesim.NewRouter(cfg.Fleet.Router, seed)
	const picks = 1 << 20
	var ns []float64
	for range 5 {
		t0 := time.Now()
		for range picks {
			pickSink += r.Pick(loads)
		}
		ns = append(ns, float64(time.Since(t0).Nanoseconds())/picks)
	}
	return median(ns)
}

// tracedFleet alternates a plain iteration (spans around Generate and
// Run) with one that attaches the counting tracer, whose output must
// match the plain run's.
func tracedFleet(o options, t *tally, rec *spanRecorder, m map[string]metric) {
	cfg, w := fleetInputs(o.seed)
	sums := digests{}
	var runS, genS, tracedS []float64
	var rep *servesim.Report
	var ct *countingTracer
	for n, end := 0, deadline(o); n == 0 || time.Now().Before(end); n++ {
		it := rec.begin("iteration", -1)
		genS = append(genS, rec.timed("servesim.Workload.Generate", it, func() {
			w.Generate(parallel.DeriveSeed(cfg.Seed, 0))
		}))
		var err error
		runS = append(runS, rec.timed("servesim.Run", it, func() { rep, err = servesim.Run(cfg, w) }))
		rec.end(it)
		if err == nil {
			err = checkReport(rep, w.Requests)
		}
		if err == nil {
			err = sums.check("fleet report", rep)
		}
		if !t.check("fleet servesim.Run", err) {
			continue
		}

		it = rec.begin("traced iteration", -1)
		ct = &countingTracer{}
		eng := servesim.NewEngine()
		eng.AttachTracer(ct)
		var traced *servesim.Report
		tracedS = append(tracedS, rec.timed("servesim.Engine.Run+countingTracer", it, func() {
			traced, err = eng.Run(cfg, w)
		}))
		rec.end(it)
		if err == nil {
			err = sums.check("fleet report", traced)
		}
		if err == nil {
			err = ct.checkTiling()
		}
		t.check("fleet traced Engine.Run", err)
	}
	if rep == nil || ct == nil {
		return
	}
	run := median(runS)
	var kv kvCounts
	kv.add(rep)
	kv.metrics(m)
	simMetrics(m, rep, 0)
	ct.metrics(m)
	set(m, "servesim.run_s", run)
	set(m, "servesim.host_ns_per_step", run*1e9/float64(rep.DecodeSteps))
	set(m, "servesim.generate_s", median(genS))
	set(m, "servesim.router_pick_ns", routerPickNS(cfg, o.seed))
	set(m, "obs.trace_overhead", median(tracedS)/run)
}

// tracedSessions runs the capacity search, then replays its probe
// rates on benchmark-owned engines — plain, with the counting tracer,
// and with obs.TraceRecorder plus obs.Registry — since Find builds its
// engine internally. A probe is a pure function of (config, workload,
// rate), so every replay must reproduce the probe's attainment.
func tracedSessions(o options, t *tally, rec *spanRecorder, m map[string]metric) {
	arms, w := sessionArms(o.seed), sessionWorkload()
	planner := servesim.DefaultCapacityPlanner()
	sums := digests{}
	var findS, runS, genS, tracedS, recS []float64
	var probes int
	var kv kvCounts
	var ct *countingTracer
	var knee *servesim.CapacityResult
	for n, end := 0, deadline(o); n == 0 || time.Now().Before(end); n++ {
		it := rec.begin("iteration", -1)
		var find, run, gen, traced, recorded float64
		probes, kv, ct = 0, kvCounts{}, &countingTracer{}
		for _, a := range arms {
			var res *servesim.CapacityResult
			var err error
			find += rec.timed("servesim.CapacityPlanner.Find", it, func() { res, err = planner.Find(a.cfg, w) })
			if err == nil {
				err = checkCapacity(a.name, res, w.Requests, sums)
			}
			if !t.check("sessions "+a.name+" CapacityPlanner.Find", err) {
				continue
			}
			if len(a.cfg.KV.Tiers) > 0 {
				knee = res
			}
			probes += res.Iterations
			plain, withTracer, withRecorder := servesim.NewEngine(), servesim.NewEngine(), servesim.NewEngine()
			withTracer.AttachTracer(ct)
			withRecorder.AttachTracer(obs.NewTraceRecorder())
			withRecorder.AttachMetrics(obs.NewRegistry(obs.DefaultMetricsInterval))
			for i, p := range res.Probes {
				pw := w
				pw.RatePerSec = p.RatePerSec
				key := fmt.Sprintf("%s probe %d", a.name, i)
				gen += rec.timed("servesim.Workload.Generate", it, func() { pw.Generate(parallel.DeriveSeed(a.cfg.Seed, 0)) })
				var rep *servesim.Report
				run += rec.timed("servesim.Engine.Run", it, func() { rep, err = plain.Run(a.cfg, pw) })
				if err == nil {
					err = checkReport(rep, w.Requests)
				}
				if err == nil && rep.SLOAttainment != p.Attainment {
					err = fmt.Errorf("replayed attainment %v, probe %v", rep.SLOAttainment, p.Attainment)
				}
				if err == nil {
					err = sums.check(key, rep)
				}
				if !t.check("sessions replay "+key, err) {
					continue
				}
				kv.add(rep)
				traced += rec.timed("servesim.Engine.Run+countingTracer", it, func() { rep, err = withTracer.Run(a.cfg, pw) })
				if err == nil {
					err = sums.check(key, rep)
				}
				t.check("sessions traced replay "+key, err)
				recorded += rec.timed("servesim.Engine.Run+TraceRecorder+Registry", it, func() { rep, err = withRecorder.Run(a.cfg, pw) })
				if err == nil {
					err = sums.check(key, rep)
				}
				t.check("sessions recorded replay "+key, err)
			}
		}
		rec.end(it)
		t.check("sessions phase tiling", ct.checkTiling())
		findS, runS, genS = append(findS, find), append(runS, run), append(genS, gen)
		tracedS, recS = append(tracedS, traced), append(recS, recorded)
	}
	if knee == nil || probes == 0 {
		return
	}
	run := median(runS)
	kv.metrics(m)
	simMetrics(m, knee.Report, knee.MaxRate)
	ct.metrics(m)
	set(m, "servesim.run_s", run)
	set(m, "servesim.host_ns_per_step", run*1e9/float64(kv.steps))
	set(m, "servesim.generate_s", median(genS))
	set(m, "servesim.router_pick_ns", routerPickNS(arms[0].cfg, o.seed))
	set(m, "servesim.capacity_probes", float64(probes))
	set(m, "servesim.host_s_per_probe", median(findS)/float64(probes))
	set(m, "obs.trace_overhead", median(tracedS)/run)
	set(m, "obs.recorder_overhead", median(recS)/run)
}
