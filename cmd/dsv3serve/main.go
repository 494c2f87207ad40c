// Command dsv3serve runs the request-level serving simulator: Poisson
// or trace-replay traffic through a disaggregated (or colocated)
// prefill/decode cluster built on the paper's §2.3.2 EP step model,
// the §2.1.2 MLA KV roofline, and optionally §2.3.3 MTP speculation.
//
// The run is deterministic: a fixed -seed (plus config) produces
// byte-identical output on every invocation and for any worker-pool
// width (rate sweeps fan out over the deterministic pool);
// -deterministic additionally omits volatile metadata (wall time) so
// documents can be diffed across runs.
//
// Usage:
//
//	dsv3serve                              # 8 req/s Poisson on 2P+4D
//	dsv3serve -rate 4,8,12                 # arrival-rate sweep
//	dsv3serve -prefill 4 -decode 4         # resize the cluster
//	dsv3serve -router p2c                  # routing policy (least-kv,
//	                                       #   round-robin, p2c, shortest-queue)
//	dsv3serve -find-capacity               # bisect for the max rate meeting
//	                                       #   the -target SLO attainment
//	dsv3serve -burst 2,8                   # bursty on/off arrivals (mean
//	                                       #   on,off dwell seconds)
//	dsv3serve -prefill 600 -decode 400     # fleet-scale run
//	dsv3serve -colocate -stride 32         # colocated continuous batching
//	dsv3serve -mtp 0.85                    # MTP speculative decoding
//	dsv3serve -kv-tiers name=dram,cap=8,read=24,write=16,lat=0.05
//	                                       # spill KV tiers below HBM
//	                                       #   (cap GB, read/write GB/s, lat ms)
//	dsv3serve -prefix-cache -turns 3 -think 2
//	                                       # multi-turn sessions reusing the
//	                                       #   cached prefix from a spill tier
//	dsv3serve -chunk-tokens 256            # offload/prefix chunk granularity
//	dsv3serve -trace requests.csv          # replay arrival,prompt,output lines
//	dsv3serve -fail crash@6:d1,recover@14:d1
//	                                       # scheduled instance faults
//	                                       #   (kind@seconds:target, target
//	                                       #   dN/pN or a dN-M/pN-M range)
//	dsv3serve -fail degrade@4:d1:6/8,heal@16:d1
//	                                       # plane-failure bandwidth derates
//	                                       #   (failed/total planes)
//	dsv3serve -mtbf 30 -mttr 5             # random crashes (mean secs between
//	                                       #   failures / to repair)
//	dsv3serve -sdc 0.001 -verify-trials 8  # silent corruption per decode step,
//	                                       #   caught by Freivalds verification
//	dsv3serve -detect 1.25 -quarantine-repair 4
//	                                       # EWMA gray-failure draining and
//	                                       #   quarantine repair time (s)
//	dsv3serve -hedge p95:0.3               # hedged requests: fixed seconds or
//	                                       #   p95:floor tracked delay
//	dsv3serve -retries 3                   # retry budget for orphaned requests
//	dsv3serve -admission queue=24,kv=0.85  # shed arrivals past these bounds
//	dsv3serve -format json                 # structured output
//	dsv3serve -timeline                    # batch/KV-occupancy timeline table
//	dsv3serve -out results.json            # write the result to a file
//	dsv3serve -trace-out trace.json        # Chrome trace_event JSON of every
//	                                       #   request lifecycle (Perfetto)
//	dsv3serve -metrics-out m.csv           # sampled time-series metrics
//	                                       #   (.json emits JSON, else CSV)
//	dsv3serve -metrics-interval 0.5        # metrics sampling cadence (s)
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"dsv3"
	"dsv3/internal/results"
)

func main() {
	rates := flag.String("rate", "8", "comma-separated Poisson arrival rates (req/s) to sweep")
	requests := flag.Int("requests", 400, "requests per simulated point")
	promptMean := flag.Int("prompt", 1024, "mean prompt tokens (lognormal)")
	outputMean := flag.Int("output", 512, "mean output tokens (lognormal)")
	tracePath := flag.String("trace", "", "replay a trace file (arrival_s,prompt,output per line) instead of Poisson traffic")
	prefill := flag.Int("prefill", 2, "prefill instances")
	decode := flag.Int("decode", 4, "decode instances")
	routerName := flag.String("router", "least-kv", "instance-selection policy: least-kv, round-robin, p2c, or shortest-queue")
	findCapacity := flag.Bool("find-capacity", false, "bisect for the max sustainable rate meeting -target SLO attainment instead of sweeping -rate")
	target := flag.Float64("target", 0.9, "SLO attainment target for -find-capacity (0..1]")
	burst := flag.String("burst", "", "bursty on/off arrivals: mean on,off dwell seconds (e.g. 2,8); empty keeps Poisson")
	colocate := flag.Bool("colocate", false, "colocate prefill and decode on prefill+decode unified instances")
	stride := flag.Int("stride", 4, "colocated: min decode steps between stall-the-world prefills")
	maxBatch := flag.Int("batch", 64, "max decode batch per instance")
	kvGB := flag.Float64("kv", 64, "KV cache capacity per instance (GB)")
	kvTiers := flag.String("kv-tiers", "", "spill KV tiers below HBM, \"/\"-separated (e.g. name=dram,cap=8,read=24,write=16,lat=0.05/name=flash,cap=64,read=6); empty keeps HBM-only")
	chunkTokens := flag.Int("chunk-tokens", 0, "offload/prefix-cache chunk granularity in tokens (0 uses the default)")
	prefixCache := flag.Bool("prefix-cache", false, "cache each session's grown prefix in a spill tier (requires -kv-tiers)")
	turns := flag.Int("turns", 1, "turns per session; >1 generates multi-turn sessions with grown prefixes")
	think := flag.Float64("think", 0, "mean think-time seconds between session turns")
	mtpAccept := flag.Float64("mtp", 0, "MTP draft acceptance rate (0 disables speculation)")
	failSpec := flag.String("fail", "", "scheduled incidents: kind@seconds:target list (e.g. crash@6:d1,recover@14:d1,degrade@4:d2:6/8,heal@16:d2; kinds crash/recover/drain/degrade/heal, targets dN/pN or dN-M/pN-M ranges, degrade takes failed[/total] planes)")
	mtbf := flag.Float64("mtbf", 0, "mean seconds between random instance crashes (0 disables)")
	mttr := flag.Float64("mttr", 0, "mean seconds to repair an MTBF crash (0 leaves instances down)")
	sdcRate := flag.Float64("sdc", 0, "silent-corruption probability per decode step (0 disables)")
	verifyTrials := flag.Int("verify-trials", 0, "Freivalds verification trials per decode step: detects a corrupt step with prob 1-2^-trials at one GEMV-equivalent per trial (0 disables)")
	detect := flag.Float64("detect", 0, "gray-failure threshold: drain an instance whose EWMA step-time ratio exceeds this multiple of the fleet median (0 disables; sensible values > 1)")
	quarantineRepair := flag.Float64("quarantine-repair", 0, "seconds to repair an instance quarantined after a detected corruption (0 leaves it down)")
	hedgeSpec := flag.String("hedge", "", "hedged requests: fixed delay seconds (e.g. 0.5) or p95:floor tracked delay (e.g. p95:0.3); empty disables")
	retries := flag.Int("retries", 0, "retry budget for requests orphaned by a crash (exponential backoff)")
	admissionSpec := flag.String("admission", "", "admission policy: queue=N and/or kv=F (e.g. queue=24,kv=0.85); empty admits everything")
	seed := flag.Int64("seed", 1, "base RNG seed")
	timeline := flag.Bool("timeline", false, "include the batch/KV-occupancy timeline table")
	formatName := flag.String("format", "text", "output format: text, json, or csv")
	deterministic := flag.Bool("deterministic", false, "omit volatile metadata (wall time) from emitted results")
	outPath := flag.String("out", "", "write the result to this file instead of stdout")
	traceOut := flag.String("trace-out", "", "write a Chrome trace_event JSON lifecycle trace to this file (load in Perfetto; single-rate runs only)")
	metricsOut := flag.String("metrics-out", "", "write sampled time-series metrics to this file (.json emits JSON, anything else CSV; single-rate runs only)")
	metricsInterval := flag.Float64("metrics-interval", float64(dsv3.DefaultServeMetricsInterval), "metrics sampling cadence in simulated seconds")
	flag.Parse()

	format, err := results.ParseFormat(*formatName)
	if err != nil {
		fail(err)
	}
	start := time.Now()

	cfg := dsv3.V3ServeConfig()
	cfg.Fleet.PrefillInstances = *prefill
	cfg.Fleet.DecodeInstances = *decode
	cfg.Fleet.Colocated = *colocate
	cfg.Fleet.ColocatedStride = *stride
	cfg.Fleet.MaxBatch = *maxBatch
	cfg.KV.HBM.CapacityBytes = *kvGB * 1e9
	cfg.Seed = *seed
	policy, err := dsv3.ParseServeRouterPolicy(*routerName)
	if err != nil {
		fail(err)
	}
	cfg.Fleet.Router = policy
	if *kvTiers != "" {
		tiers, err := dsv3.ParseServeKVTiers(*kvTiers)
		if err != nil {
			fail(err)
		}
		cfg.KV.Tiers = tiers
	}
	cfg.KV.ChunkTokens = *chunkTokens
	cfg.KV.PrefixCache = *prefixCache
	if *mtpAccept != 0 {
		spec := dsv3.MTPV3()
		spec.Acceptance = *mtpAccept
		cfg.MTP = &spec
	}
	degraded := false
	if *failSpec != "" || *mtbf != 0 {
		var events []dsv3.ServeFaultEvent
		if *failSpec != "" {
			events, err = dsv3.ParseServeFaultEvents(*failSpec)
			if err != nil {
				fail(err)
			}
		}
		for _, ev := range events {
			degraded = degraded || ev.Kind == dsv3.FaultDegrade
		}
		cfg.Resilience.Faults = &dsv3.ServeFaultPlan{Events: events, MTBF: *mtbf, MTTR: *mttr}
	}
	cfg.Resilience.MaxRetries = *retries
	if *admissionSpec != "" {
		adm, err := dsv3.ParseServeAdmissionPolicy(*admissionSpec)
		if err != nil {
			fail(err)
		}
		cfg.Resilience.Admission = adm
	}
	if *sdcRate != 0 || *verifyTrials != 0 || *detect != 0 || *quarantineRepair != 0 {
		cfg.Resilience.Hazards = &dsv3.ServeHazardPlan{
			SDCRate:          *sdcRate,
			VerifyTrials:     *verifyTrials,
			DetectThreshold:  *detect,
			QuarantineRepair: *quarantineRepair,
		}
	}
	if *hedgeSpec != "" {
		cfg.Resilience.Hedge, err = dsv3.ParseServeHedgePolicy(*hedgeSpec)
		if err != nil {
			fail(err)
		}
	}
	hazardous := degraded || cfg.Resilience.Hazards != nil || *hedgeSpec != ""
	faulty := cfg.Resilience.Faults != nil || *admissionSpec != "" || *retries > 0 || hazardous

	observing := *traceOut != "" || *metricsOut != ""
	if observing {
		if *findCapacity {
			fail(fmt.Errorf("dsv3serve: -trace-out/-metrics-out record a single run and cannot follow a -find-capacity search"))
		}
		if !(*metricsInterval > 0) || math.IsInf(*metricsInterval, 0) {
			fail(fmt.Errorf("dsv3serve: -metrics-interval must be finite and > 0, got %g", *metricsInterval))
		}
	}

	// Surface every configuration problem at once: Config.Validate
	// aggregates the sub-config errors with errors.Join, so a broken
	// invocation lists all of them instead of failing one at a time.
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "dsv3serve: invalid configuration:")
		for _, line := range strings.Split(err.Error(), "\n") {
			fmt.Fprintln(os.Stderr, "  -", line)
		}
		os.Exit(1)
	}

	w := dsv3.ServeWorkload{
		Arrival:   dsv3.ArrivalPoisson,
		Requests:  *requests,
		Prompt:    dsv3.LogNormalLength(*promptMean, 0.5),
		Output:    dsv3.LogNormalLength(*outputMean, 0.5),
		Turns:     *turns,
		ThinkTime: *think,
	}
	if *burst != "" {
		on, off, err := parseBurst(*burst)
		if err != nil {
			fail(err)
		}
		w.Arrival = dsv3.ArrivalBursty
		w.BurstOnMean, w.BurstOffMean = on, off
	}

	if *findCapacity {
		if *tracePath != "" {
			fail(fmt.Errorf("dsv3serve: -find-capacity searches over arrival rates and cannot replay a -trace"))
		}
		planner := dsv3.DefaultServeCapacityPlanner()
		planner.Target = *target
		res, err := planner.Find(cfg, w)
		if err != nil {
			fail(err)
		}
		out := buildCapacityResult(res, *target, *seed, *timeline)
		if !*deterministic {
			out.Meta.WallTime = time.Since(start)
		}
		emit(format, out, *outPath)
		return
	}

	// With -trace-out/-metrics-out the run goes through one observed
	// engine instead of the sweep pool. The sweep derives each point's
	// seed from (cfg.Seed, index), so the observed single-rate run uses
	// DeriveSeed(cfg.Seed, 0) — the headline table is byte-identical
	// with and without observability attached.
	var rec *dsv3.ServeTraceRecorder
	var reg *dsv3.ServeMetricsRegistry
	if observing {
		rec = dsv3.NewServeTraceRecorder()
		reg = dsv3.NewServeMetricsRegistry(*metricsInterval)
	}
	observe := func(cfg dsv3.ServeConfig, w dsv3.ServeWorkload) *dsv3.ServeReport {
		eng := dsv3.NewServeEngine()
		eng.AttachTracer(rec)
		eng.AttachMetrics(reg)
		rep, err := eng.Run(cfg, w)
		if err != nil {
			fail(err)
		}
		return rep
	}

	var pts []dsv3.ServeSweepPoint
	if *tracePath != "" {
		if *turns > 1 {
			fail(fmt.Errorf("dsv3serve: -turns needs generated traffic; encode sessions in the -trace instead"))
		}
		f, err := os.Open(*tracePath)
		if err != nil {
			fail(err)
		}
		trace, err := dsv3.ParseServeTrace(f)
		f.Close()
		if err != nil {
			fail(err)
		}
		w = dsv3.ServeWorkload{Arrival: dsv3.ArrivalTrace, Trace: trace}
		var rep *dsv3.ServeReport
		if observing {
			rep = observe(cfg, w)
		} else {
			rep, err = dsv3.RunServe(cfg, w)
			if err != nil {
				fail(err)
			}
		}
		pts = []dsv3.ServeSweepPoint{{Report: rep}}
	} else {
		sweep, err := parseRates(*rates)
		if err != nil {
			fail(err)
		}
		if observing {
			if len(sweep) != 1 {
				fail(fmt.Errorf("dsv3serve: -trace-out/-metrics-out record a single run; got %d rates", len(sweep)))
			}
			pc := cfg
			pc.Seed = dsv3.DeriveSeed(cfg.Seed, 0)
			pw := w
			pw.RatePerSec = sweep[0]
			pts = []dsv3.ServeSweepPoint{{RatePerSec: sweep[0], Report: observe(pc, pw)}}
		} else if pts, err = dsv3.ServeRateSweep(cfg, w, sweep); err != nil {
			fail(err)
		}
	}

	res := buildResult(pts, *tracePath != "", *timeline, faulty, hazardous, *seed)
	if !*deterministic {
		res.Meta.WallTime = time.Since(start)
	}
	emit(format, res, *outPath)
	if *traceOut != "" {
		writeOut(*traceOut, rec.WriteJSON)
	}
	if *metricsOut != "" {
		if strings.HasSuffix(*metricsOut, ".json") {
			writeOut(*metricsOut, reg.WriteJSON)
		} else {
			writeOut(*metricsOut, reg.WriteCSV)
		}
	}
}

// emit renders one result in the selected format, to stdout or (path
// non-empty) to a file. Write failures — including the text path to a
// full or closed stdout — exit non-zero naming the destination.
func emit(format dsv3.ResultFormat, res *dsv3.ExperimentResult, path string) {
	write := func(w io.Writer) error {
		switch format {
		case results.FormatJSON:
			return results.EmitJSON(w, res)
		case results.FormatCSV:
			return results.EmitCSV(w, res)
		default:
			_, err := io.WriteString(w, res.Text())
			return err
		}
	}
	if path == "" {
		if err := write(os.Stdout); err != nil {
			fail(fmt.Errorf("dsv3serve: write stdout: %w", err))
		}
		return
	}
	writeOut(path, write)
}

// writeOut creates path and streams write into it, exiting non-zero
// with the offending path on any create, write, or close failure.
func writeOut(path string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fail(fmt.Errorf("dsv3serve: write %s: %w", path, err))
	}
	if err := write(f); err != nil {
		f.Close()
		fail(fmt.Errorf("dsv3serve: write %s: %w", path, err))
	}
	if err := f.Close(); err != nil {
		fail(fmt.Errorf("dsv3serve: write %s: %w", path, err))
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// parseBurst reads the -burst "onMean,offMean" dwell pair.
func parseBurst(s string) (on, off float64, err error) {
	parts := strings.Split(s, ",")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("dsv3serve: bad -burst %q: want onMean,offMean seconds", s)
	}
	if on, err = strconv.ParseFloat(strings.TrimSpace(parts[0]), 64); err != nil {
		return 0, 0, fmt.Errorf("dsv3serve: bad -burst %q: %w", s, err)
	}
	if off, err = strconv.ParseFloat(strings.TrimSpace(parts[1]), 64); err != nil {
		return 0, 0, fmt.Errorf("dsv3serve: bad -burst %q: %w", s, err)
	}
	return on, off, nil
}

func parseRates(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("dsv3serve: bad -rate %q: %w", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// buildCapacityResult packs a capacity search into the shared results
// model: the knee headline plus the probe trail, and optionally the
// knee run's timeline.
func buildCapacityResult(res *dsv3.ServeCapacityResult, target float64, seed int64, timeline bool) *dsv3.ExperimentResult {
	knee := dsv3.NewExperimentTable("Capacity search: max sustainable rate within SLO",
		dsv3.ExperimentColumn{Name: "Target", Unit: "%"},
		dsv3.ExperimentColumn{Name: "Knee", Unit: "req/s"},
		dsv3.ExperimentColumn{Name: "SLO@knee", Unit: "%"},
		dsv3.ExperimentColumn{Name: "Goodput", Unit: "req/s"},
		dsv3.ExperimentColumn{Name: "TTFT p99", Unit: "ms"},
		dsv3.ExperimentColumn{Name: "TPOT p99", Unit: "ms"},
		dsv3.ExperimentColumn{Name: "Preempt"},
		dsv3.ExperimentColumn{Name: "Probes"},
	)
	r := res.Report
	// A search that never broke the SLO hit the planner's rate ceiling:
	// the knee is a lower bound, not a measurement.
	kneeCell := dsv3.FloatCell("%.2f", res.MaxRate)
	if res.Saturated {
		kneeCell = dsv3.StrCell(fmt.Sprintf(">=%.2f (search ceiling)", res.MaxRate))
	}
	knee.Row(dsv3.FloatCell("%.0f%%", target*100),
		kneeCell,
		dsv3.FloatCell("%.1f%%", res.Attainment*100),
		dsv3.FloatCell("%.2f", r.GoodputRPS),
		dsv3.FloatCell("%.0f", r.TTFT.P99*1e3), dsv3.FloatCell("%.2f", r.TPOT.P99*1e3),
		dsv3.IntCell(r.Preemptions), dsv3.IntCell(len(res.Probes)))

	probes := dsv3.NewExperimentTable("Probes (bisection trail)",
		dsv3.ExperimentColumn{Name: "Rate", Unit: "req/s"},
		dsv3.ExperimentColumn{Name: "SLO", Unit: "%"},
		dsv3.ExperimentColumn{Name: "Sustainable"})
	for _, p := range res.Probes {
		verdict := "no"
		if p.Sustainable {
			verdict = "yes"
		}
		probes.Row(dsv3.FloatCell("%.2f", p.RatePerSec),
			dsv3.FloatCell("%.1f%%", p.Attainment*100), dsv3.StrCell(verdict))
	}
	tables := []*dsv3.ExperimentTable{knee, probes}
	if timeline {
		tl := dsv3.NewExperimentTable("Timeline: knee run",
			dsv3.ExperimentColumn{Name: "Time", Unit: "s"},
			dsv3.ExperimentColumn{Name: "Batch"},
			dsv3.ExperimentColumn{Name: "KV", Unit: "%"})
		for _, s := range r.Timeline {
			tl.Row(dsv3.FloatCell("%.2f", s.Time), dsv3.IntCell(s.ActiveBatch),
				dsv3.FloatCell("%.1f%%", s.KVOccupancy*100))
		}
		tables = append(tables, tl)
	}
	out := dsv3.NewExperimentResult("dsv3serve", "SLO capacity search", tables...)
	out.Meta.Seed = seed
	return out
}

// buildResult packs the sweep into the shared results model so every
// emitter (text/json/csv) works unchanged. With faults or admission
// configured it appends failure-mode and incident tables; with hazards
// or hedging, the hazard summary.
func buildResult(pts []dsv3.ServeSweepPoint, traced, timeline, faulty, hazardous bool, seed int64) *dsv3.ExperimentResult {
	t := dsv3.NewExperimentTable("Serving simulation",
		dsv3.ExperimentColumn{Name: "Rate", Unit: "req/s"},
		dsv3.ExperimentColumn{Name: "Completed"},
		dsv3.ExperimentColumn{Name: "TTFT p50", Unit: "ms"},
		dsv3.ExperimentColumn{Name: "TTFT p99", Unit: "ms"},
		dsv3.ExperimentColumn{Name: "TPOT p50", Unit: "ms"},
		dsv3.ExperimentColumn{Name: "TPOT p99", Unit: "ms"},
		dsv3.ExperimentColumn{Name: "E2E p99", Unit: "s"},
		dsv3.ExperimentColumn{Name: "Goodput", Unit: "req/s"},
		dsv3.ExperimentColumn{Name: "SLO", Unit: "%"},
		dsv3.ExperimentColumn{Name: "Batch"},
		dsv3.ExperimentColumn{Name: "KV peak", Unit: "%"},
		dsv3.ExperimentColumn{Name: "Preempt"},
		dsv3.ExperimentColumn{Name: "Dropped"},
	)
	for _, p := range pts {
		r := p.Report
		rate := dsv3.FloatCell("%.1f", p.RatePerSec)
		if traced {
			rate = dsv3.FloatCell("%.2f", r.OfferedRate)
		}
		t.Row(rate,
			dsv3.IntCell(r.Completed),
			dsv3.FloatCell("%.0f", r.TTFT.P50*1e3), dsv3.FloatCell("%.0f", r.TTFT.P99*1e3),
			dsv3.FloatCell("%.2f", r.TPOT.P50*1e3), dsv3.FloatCell("%.2f", r.TPOT.P99*1e3),
			dsv3.FloatCell("%.2f", r.E2E.P99),
			dsv3.FloatCell("%.2f", r.GoodputRPS), dsv3.FloatCell("%.1f%%", r.SLOAttainment*100),
			dsv3.FloatCell("%.1f", r.MeanBatch), dsv3.FloatCell("%.1f%%", r.PeakKVOccupancy*100),
			dsv3.IntCell(r.Preemptions), dsv3.IntCell(r.DroppedSamples))
	}
	tables := []*dsv3.ExperimentTable{t}
	tiered := false
	for _, p := range pts {
		tiered = tiered || len(p.Report.KVTierMoves) > 0
	}
	if tiered {
		tables = append(tables, buildKVTierTables(pts, traced)...)
	}
	if faulty {
		tables = append(tables, buildFailureTables(pts, traced)...)
	}
	if hazardous {
		tables = append(tables, buildHazardTable(pts, traced))
	}
	if timeline {
		for i, p := range pts {
			title := fmt.Sprintf("Timeline: point %d", i+1)
			if !traced {
				title = fmt.Sprintf("Timeline: %.1f req/s", p.RatePerSec)
			}
			tl := dsv3.NewExperimentTable(title,
				dsv3.ExperimentColumn{Name: "Time", Unit: "s"},
				dsv3.ExperimentColumn{Name: "Batch"},
				dsv3.ExperimentColumn{Name: "KV", Unit: "%"})
			for _, s := range p.Report.Timeline {
				tl.Row(dsv3.FloatCell("%.2f", s.Time), dsv3.IntCell(s.ActiveBatch),
					dsv3.FloatCell("%.1f%%", s.KVOccupancy*100))
			}
			tables = append(tables, tl)
		}
	}
	res := dsv3.NewExperimentResult("dsv3serve", "request-level serving simulation", tables...)
	res.Meta.Seed = seed
	return res
}

// buildKVTierTables packs the tiered-KV metrics for runs with spill
// tiers configured: the offload/reload and prefix-cache summary per
// point, and the bytes moved through each tier (index 0 is HBM).
func buildKVTierTables(pts []dsv3.ServeSweepPoint, traced bool) []*dsv3.ExperimentTable {
	rateCell := func(p dsv3.ServeSweepPoint) dsv3.ExperimentCell {
		if traced {
			return dsv3.FloatCell("%.2f", p.Report.OfferedRate)
		}
		return dsv3.FloatCell("%.1f", p.RatePerSec)
	}
	sum := dsv3.NewExperimentTable("KV hierarchy",
		dsv3.ExperimentColumn{Name: "Rate", Unit: "req/s"},
		dsv3.ExperimentColumn{Name: "Offloads"},
		dsv3.ExperimentColumn{Name: "Reloads"},
		dsv3.ExperimentColumn{Name: "Demotions"},
		dsv3.ExperimentColumn{Name: "Drops"},
		dsv3.ExperimentColumn{Name: "Reload stall", Unit: "s"},
		dsv3.ExperimentColumn{Name: "Prefix hits"},
		dsv3.ExperimentColumn{Name: "Misses"},
		dsv3.ExperimentColumn{Name: "Hit", Unit: "tok"},
	)
	moves := dsv3.NewExperimentTable("KV tier traffic",
		dsv3.ExperimentColumn{Name: "Rate", Unit: "req/s"},
		dsv3.ExperimentColumn{Name: "Tier"},
		dsv3.ExperimentColumn{Name: "In", Unit: "GB"},
		dsv3.ExperimentColumn{Name: "Out", Unit: "GB"},
	)
	for _, p := range pts {
		r := p.Report
		if len(r.KVTierMoves) == 0 {
			continue
		}
		sum.Row(rateCell(p),
			dsv3.IntCell(r.KVOffloads), dsv3.IntCell(r.KVReloads),
			dsv3.IntCell(r.TierDemotions), dsv3.IntCell(r.TierDrops),
			dsv3.FloatCell("%.3f", r.ReloadStall),
			dsv3.IntCell(r.PrefixHits), dsv3.IntCell(r.PrefixMisses),
			dsv3.IntCell(r.PrefixHitTokens))
		for _, m := range r.KVTierMoves {
			moves.Row(rateCell(p), dsv3.StrCell(m.Tier),
				dsv3.FloatCell("%.2f", m.BytesIn/1e9), dsv3.FloatCell("%.2f", m.BytesOut/1e9))
		}
	}
	return []*dsv3.ExperimentTable{sum, moves}
}

// buildFailureTables packs the failure-mode metrics and the per-crash
// incident log for runs with faults, retries or admission configured.
func buildFailureTables(pts []dsv3.ServeSweepPoint, traced bool) []*dsv3.ExperimentTable {
	fm := dsv3.NewExperimentTable("Failure modes",
		dsv3.ExperimentColumn{Name: "Rate", Unit: "req/s"},
		dsv3.ExperimentColumn{Name: "Offered"},
		dsv3.ExperimentColumn{Name: "Failed"},
		dsv3.ExperimentColumn{Name: "Shed"},
		dsv3.ExperimentColumn{Name: "Affected"},
		dsv3.ExperimentColumn{Name: "Retried"},
		dsv3.ExperimentColumn{Name: "Retry amp"},
		dsv3.ExperimentColumn{Name: "KV lost", Unit: "tok"},
		dsv3.ExperimentColumn{Name: "SLO healthy", Unit: "%"},
		dsv3.ExperimentColumn{Name: "SLO faulted", Unit: "%"},
	)
	var incidents int
	for _, p := range pts {
		r := p.Report
		rate := dsv3.FloatCell("%.1f", p.RatePerSec)
		if traced {
			rate = dsv3.FloatCell("%.2f", r.OfferedRate)
		}
		fm.Row(rate, dsv3.IntCell(r.Requests),
			dsv3.IntCell(r.Failed), dsv3.IntCell(r.Shed),
			dsv3.IntCell(r.AffectedRequests), dsv3.IntCell(r.Retried),
			dsv3.FloatCell("%.3f", r.RetryAmplification), dsv3.IntCell(r.KVTokensLost),
			dsv3.FloatCell("%.1f%%", r.SLOHealthy*100), dsv3.FloatCell("%.1f%%", r.SLOFaulted*100))
		incidents += len(r.Incidents)
	}
	tables := []*dsv3.ExperimentTable{fm}
	if incidents > 0 {
		inc := dsv3.NewExperimentTable("Incidents",
			dsv3.ExperimentColumn{Name: "Rate", Unit: "req/s"},
			dsv3.ExperimentColumn{Name: "At", Unit: "s"},
			dsv3.ExperimentColumn{Name: "Instance"},
			dsv3.ExperimentColumn{Name: "Kind"},
			dsv3.ExperimentColumn{Name: "Orphaned"},
			dsv3.ExperimentColumn{Name: "KV lost", Unit: "tok"},
			dsv3.ExperimentColumn{Name: "Recovery", Unit: "s"},
		)
		for _, p := range pts {
			r := p.Report
			rate := dsv3.FloatCell("%.1f", p.RatePerSec)
			if traced {
				rate = dsv3.FloatCell("%.2f", r.OfferedRate)
			}
			for _, in := range r.Incidents {
				name := fmt.Sprintf("d%d", in.Instance)
				if in.Prefill {
					name = fmt.Sprintf("p%d", in.Instance)
				}
				kind := in.Kind
				if kind == "" {
					kind = "crash"
				}
				inc.Row(rate, dsv3.FloatCell("%.2f", in.At), dsv3.StrCell(name),
					dsv3.StrCell(kind),
					dsv3.IntCell(in.Orphaned), dsv3.IntCell(in.KVTokensLost),
					dsv3.FloatCell("%.2f", in.Recovery))
			}
		}
		tables = append(tables, inc)
	}
	return tables
}

// buildHazardTable packs the cross-layer hazard metrics for runs with
// plane degrade events, SDC injection, or hedging configured.
func buildHazardTable(pts []dsv3.ServeSweepPoint, traced bool) *dsv3.ExperimentTable {
	t := dsv3.NewExperimentTable("Hazards",
		dsv3.ExperimentColumn{Name: "Rate", Unit: "req/s"},
		dsv3.ExperimentColumn{Name: "SDC steps"},
		dsv3.ExperimentColumn{Name: "Caught"},
		dsv3.ExperimentColumn{Name: "Corrupt resp"},
		dsv3.ExperimentColumn{Name: "Gray drains"},
		dsv3.ExperimentColumn{Name: "Hedges"},
		dsv3.ExperimentColumn{Name: "Wins"},
		dsv3.ExperimentColumn{Name: "Wasted", Unit: "tok"},
	)
	for _, p := range pts {
		r := p.Report
		rate := dsv3.FloatCell("%.1f", p.RatePerSec)
		if traced {
			rate = dsv3.FloatCell("%.2f", r.OfferedRate)
		}
		t.Row(rate,
			dsv3.IntCell(r.CorruptSteps), dsv3.IntCell(r.SDCDetected),
			dsv3.IntCell(r.CorruptResponses), dsv3.IntCell(r.GrayDrained),
			dsv3.IntCell(r.Hedges), dsv3.IntCell(r.HedgeWins),
			dsv3.IntCell(r.HedgeWastedTokens))
	}
	return t
}
