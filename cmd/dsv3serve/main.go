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
// A flag the chosen mode ignores is rejected: -trace replays the
// file's traffic (no -rate, -requests, -prompt, -output, -burst, -turns
// or -think), and -find-capacity picks its own rates (no -rate).
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
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"dsv3"
	"dsv3/internal/experiments"
	"dsv3/internal/results"
	"dsv3/internal/servesim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one invocation and returns its exit status: 2 for a
// malformed command line, 1 for any other failure (reported on stderr).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dsv3serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	rates := fs.String("rate", "8", "comma-separated Poisson arrival rates (req/s) to sweep")
	requests := fs.Int("requests", 400, "requests per simulated point")
	promptMean := fs.Int("prompt", 1024, "mean prompt tokens (lognormal)")
	outputMean := fs.Int("output", 512, "mean output tokens (lognormal)")
	tracePath := fs.String("trace", "", "replay a trace file (arrival_s,prompt,output per line) instead of Poisson traffic")
	prefill := fs.Int("prefill", 2, "prefill instances")
	decode := fs.Int("decode", 4, "decode instances")
	routerName := fs.String("router", "least-kv", "instance-selection policy: least-kv, round-robin, p2c, or shortest-queue")
	findCapacity := fs.Bool("find-capacity", false, "bisect for the max sustainable rate meeting -target SLO attainment instead of sweeping -rate")
	target := fs.Float64("target", 0.9, "SLO attainment target for -find-capacity (0..1]")
	burst := fs.String("burst", "", "bursty on/off arrivals: mean on,off dwell seconds (e.g. 2,8); empty keeps Poisson")
	colocate := fs.Bool("colocate", false, "colocate prefill and decode on prefill+decode unified instances")
	stride := fs.Int("stride", 4, "colocated: min decode steps between stall-the-world prefills")
	maxBatch := fs.Int("batch", 64, "max decode batch per instance")
	kvGB := fs.Float64("kv", 64, "KV cache capacity per instance (GB)")
	kvTiers := fs.String("kv-tiers", "", "spill KV tiers below HBM, \"/\"-separated (e.g. name=dram,cap=8,read=24,write=16,lat=0.05/name=flash,cap=64,read=6); empty keeps HBM-only")
	chunkTokens := fs.Int("chunk-tokens", 0, "offload/prefix-cache chunk granularity in tokens (0 uses the default)")
	prefixCache := fs.Bool("prefix-cache", false, "cache each session's grown prefix in a spill tier (requires -kv-tiers)")
	turns := fs.Int("turns", 1, "turns per session; >1 generates multi-turn sessions with grown prefixes")
	think := fs.Float64("think", 0, "mean think-time seconds between session turns")
	mtpAccept := fs.Float64("mtp", 0, "MTP draft acceptance rate (0 disables speculation)")
	failSpec := fs.String("fail", "", "scheduled incidents: kind@seconds:target list (e.g. crash@6:d1,recover@14:d1,degrade@4:d2:6/8,heal@16:d2; kinds crash/recover/drain/degrade/heal, targets dN/pN or dN-M/pN-M ranges, degrade takes failed[/total] planes)")
	mtbf := fs.Float64("mtbf", 0, "mean seconds between random instance crashes (0 disables)")
	mttr := fs.Float64("mttr", 0, "mean seconds to repair an MTBF crash (0 leaves instances down)")
	sdcRate := fs.Float64("sdc", 0, "silent-corruption probability per decode step (0 disables)")
	verifyTrials := fs.Int("verify-trials", 0, "Freivalds verification trials per decode step: detects a corrupt step with prob 1-2^-trials at one GEMV-equivalent per trial (0 disables)")
	detect := fs.Float64("detect", 0, "gray-failure threshold: drain an instance whose EWMA step-time ratio exceeds this multiple of the fleet median (0 disables; sensible values > 1)")
	quarantineRepair := fs.Float64("quarantine-repair", 0, "seconds to repair an instance quarantined after a detected corruption (0 leaves it down)")
	hedgeSpec := fs.String("hedge", "", "hedged requests: fixed delay seconds (e.g. 0.5) or p95:floor tracked delay (e.g. p95:0.3); empty disables")
	retries := fs.Int("retries", 0, "retry budget for requests orphaned by a crash (exponential backoff)")
	admissionSpec := fs.String("admission", "", "admission policy: queue=N and/or kv=F (e.g. queue=24,kv=0.85); empty admits everything")
	seed := fs.Int64("seed", 1, "base RNG seed")
	timeline := fs.Bool("timeline", false, "include the batch/KV-occupancy timeline table")
	formatName := fs.String("format", "text", "output format: text, json, or csv")
	deterministic := fs.Bool("deterministic", false, "omit volatile metadata (wall time) from emitted results")
	outPath := fs.String("out", "", "write the result to this file instead of stdout")
	traceOut := fs.String("trace-out", "", "write a Chrome trace_event JSON lifecycle trace to this file (load in Perfetto; single-rate runs only)")
	metricsOut := fs.String("metrics-out", "", "write sampled time-series metrics to this file (.json emits JSON, anything else CSV; single-rate runs only)")
	metricsInterval := fs.Float64("metrics-interval", float64(dsv3.DefaultServeMetricsInterval), "metrics sampling cadence in simulated seconds")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	// Parsing stops at the first non-flag argument, so every flag
	// after it would be dropped silently.
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "dsv3serve: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, err)
		return 1
	}

	// A flag that has no effect is an error, not a silent no-op: a
	// replay takes its traffic from the trace, a capacity search picks
	// its own rates, and the other flags below act only beside the one
	// their condition names. The first rule that matches a set flag
	// gives the message.
	rules := []struct {
		flags string // space-separated flag names
		hit   bool
		cond  string
	}{
		{"rate requests prompt output burst turns think", *tracePath != "", "with -trace"},
		{"rate", *findCapacity, "with -find-capacity"},
		{"target", !*findCapacity, "without -find-capacity"},
		{"metrics-interval", *traceOut == "" && *metricsOut == "", "without -trace-out or -metrics-out"},
		{"stride", !*colocate, "without -colocate"},
		{"router", *colocate, "with -colocate"},
		{"chunk-tokens", *kvTiers == "", "without -kv-tiers"},
		{"think", *turns <= 1, fmt.Sprintf("with -turns %d", *turns)},
		{"mttr", *mtbf == 0, "without -mtbf"},
	}
	var unused error
	fs.Visit(func(f *flag.Flag) {
		for _, r := range rules {
			if unused == nil && r.hit && slices.Contains(strings.Fields(r.flags), f.Name) {
				unused = fmt.Errorf("dsv3serve: -%s has no effect %s", f.Name, r.cond)
			}
		}
	})
	if unused != nil {
		return fail(unused)
	}

	format, err := results.ParseFormat(*formatName)
	if err != nil {
		return fail(err)
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
	if cfg.Fleet.Router, err = dsv3.ParseServeRouterPolicy(*routerName); err != nil {
		return fail(err)
	}
	if *kvTiers != "" {
		if cfg.KV.Tiers, err = dsv3.ParseServeKVTiers(*kvTiers); err != nil {
			return fail(err)
		}
	}
	cfg.KV.ChunkTokens = *chunkTokens
	cfg.KV.PrefixCache = *prefixCache
	if *mtpAccept != 0 {
		spec := dsv3.MTPV3()
		spec.Acceptance = *mtpAccept
		cfg.MTP = &spec
	}
	if *failSpec != "" || *mtbf != 0 {
		var events []dsv3.ServeFaultEvent
		if *failSpec != "" {
			if events, err = dsv3.ParseServeFaultEvents(*failSpec); err != nil {
				return fail(err)
			}
		}
		cfg.Resilience.Faults = &dsv3.ServeFaultPlan{Events: events, MTBF: *mtbf, MTTR: *mttr}
	}
	cfg.Resilience.MaxRetries = *retries
	if *admissionSpec != "" {
		if cfg.Resilience.Admission, err = dsv3.ParseServeAdmissionPolicy(*admissionSpec); err != nil {
			return fail(err)
		}
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
		if cfg.Resilience.Hedge, err = dsv3.ParseServeHedgePolicy(*hedgeSpec); err != nil {
			return fail(err)
		}
	}

	observing := *traceOut != "" || *metricsOut != ""
	if observing {
		if *findCapacity {
			return fail(fmt.Errorf("dsv3serve: -trace-out/-metrics-out record a single run and cannot follow a -find-capacity search"))
		}
		if !(*metricsInterval > 0) || math.IsInf(*metricsInterval, 0) {
			return fail(fmt.Errorf("dsv3serve: -metrics-interval must be finite and > 0, got %g", *metricsInterval))
		}
	}

	// Surface every configuration problem at once: Config.Validate
	// aggregates the sub-config errors with errors.Join, so a broken
	// invocation lists all of them instead of failing one at a time.
	if err := cfg.Validate(); err != nil {
		return fail(fmt.Errorf("dsv3serve: invalid configuration:\n  - %s", strings.ReplaceAll(err.Error(), "\n", "\n  - ")))
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
			return fail(err)
		}
		w.Arrival = dsv3.ArrivalBursty
		w.BurstOnMean, w.BurstOffMean = on, off
	}

	var sweep []float64
	var planner *servesim.CapacityPlanner
	switch {
	case *findCapacity:
		if *tracePath != "" {
			return fail(fmt.Errorf("dsv3serve: -find-capacity searches over arrival rates and cannot replay a -trace"))
		}
		p := dsv3.DefaultServeCapacityPlanner()
		p.Target = *target
		planner = &p
	case *tracePath != "":
		f, err := os.Open(*tracePath)
		if err != nil {
			return fail(err)
		}
		trace, err := dsv3.ParseServeTrace(f)
		f.Close()
		if err != nil {
			return fail(err)
		}
		w = dsv3.ServeWorkload{Arrival: dsv3.ArrivalTrace, Trace: trace}
	default:
		if sweep, err = parseRates(*rates); err != nil {
			return fail(err)
		}
		if observing && len(sweep) != 1 {
			return fail(fmt.Errorf("dsv3serve: -trace-out/-metrics-out record a single run; got %d rates", len(sweep)))
		}
	}

	// Observers ride on one engine that runs the single arm; the headline
	// table is byte-identical with and without them.
	var eng *servesim.Engine
	var rec *dsv3.ServeTraceRecorder
	var reg *dsv3.ServeMetricsRegistry
	if observing {
		rec = dsv3.NewServeTraceRecorder()
		reg = dsv3.NewServeMetricsRegistry(*metricsInterval)
		eng = dsv3.NewServeEngine()
		eng.AttachTracer(rec)
		eng.AttachMetrics(reg)
	}
	res, err := experiments.ServeCLI(cfg, w, sweep, planner, *timeline, eng)
	if err != nil {
		return fail(err)
	}
	if !*deterministic {
		res.Meta.WallTime = time.Since(start)
	}
	emit := func(w io.Writer) error { return results.Emit(w, format, res) }
	if *outPath == "" {
		if err := emit(stdout); err != nil {
			return fail(fmt.Errorf("dsv3serve: write stdout: %w", err))
		}
	} else if err := writeOut(*outPath, emit); err != nil {
		return fail(err)
	}
	if *traceOut != "" {
		if err := writeOut(*traceOut, rec.WriteJSON); err != nil {
			return fail(err)
		}
	}
	if *metricsOut != "" {
		write := reg.WriteCSV
		if strings.HasSuffix(*metricsOut, ".json") {
			write = reg.WriteJSON
		}
		if err := writeOut(*metricsOut, write); err != nil {
			return fail(err)
		}
	}
	return 0
}

// writeOut creates path and streams write into it; any create, write,
// or close failure is returned naming the path.
func writeOut(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err == nil {
		err = write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("dsv3serve: write %s: %w", path, err)
	}
	return nil
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
