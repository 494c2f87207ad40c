package servesim

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"dsv3/internal/inference"
	"dsv3/internal/mla"
	"dsv3/internal/mtp"
	"dsv3/internal/units"
)

func testWorkload(rate float64, requests int) Workload {
	return Workload{
		Arrival:    ArrivalPoisson,
		RatePerSec: rate,
		Requests:   requests,
		Prompt:     LogNormal(1024, 0.5),
		Output:     LogNormal(512, 0.5),
	}
}

func mustRun(t *testing.T, cfg Config, w Workload) *Report {
	t.Helper()
	rep, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// Same seed + config must reproduce the report byte for byte — the
// package determinism contract.
func TestRunDeterminism(t *testing.T) {
	cfg := V3ServeConfig()
	w := testWorkload(8, 150)
	a, err := json.Marshal(mustRun(t, cfg, w))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(mustRun(t, cfg, w))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("same seed produced different reports:\n%s\n%s", a, b)
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	cfg := V3ServeConfig()
	w := testWorkload(8, 150)
	a := mustRun(t, cfg, w)
	cfg.Seed = 99
	b := mustRun(t, cfg, w)
	if a.TTFT.Mean == b.TTFT.Mean && a.E2E.Mean == b.E2E.Mean {
		t.Error("different seeds produced identical latency distributions")
	}
}

// With negligible compute the decode step must land exactly on the
// paper's §2.3.2 headline: 32 tokens/device on 400G IB (50 GB/s) ->
// 120.96 us of communication per layer, 14.76 ms TPOT under
// dual-micro-batch overlap.
func TestDecodeStepReproducesPaperTPOT(t *testing.T) {
	l := V3LatencyModel()
	l.Efficiency = 1
	l.WeightBytes = 0
	got := l.decodeStepTime(l.consts(), 32, batchAttention{}, 1)
	ep := inference.V3EPConfig()
	a, err := ep.Analyze(50 * units.GB)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(got-a.TPOT) / a.TPOT; rel > 1e-12 {
		t.Errorf("step time %.6fms, want paper TPOT %.6fms (rel %.2e)", got*1e3, a.TPOT*1e3, rel)
	}
	if math.Abs(a.TPOT-14.76e-3) > 0.01e-3 {
		t.Errorf("paper TPOT drifted: %.4fms", a.TPOT*1e3)
	}
}

// With nonzero compute the decode step still lands on Analyze's closed
// form, 2·max(comm, compute/layers)·layers: at batch 32 (the EP step
// batch) the comm leg is Analyze's CommTime, so a step whose compute
// hides under it is the paper TPOT, and a long-context step is twice
// its compute.
func TestDecodeStepMatchesAnalyzeWithCompute(t *testing.T) {
	l := V3LatencyModel()
	lc := l.consts()
	a, err := l.EP.Analyze(l.InterconnectBW)
	if err != nil {
		t.Fatal(err)
	}
	const batch = 32
	layers := float64(l.Model.Layers)
	for _, tc := range []struct {
		ctx       int
		commBound bool
	}{{4096, true}, {32768, false}} {
		var attn batchAttention
		for i := 0; i < batch; i++ {
			l.addContextC(lc, &attn, tc.ctx)
		}
		dc := mla.AttentionDecodeCost(l.Model, tc.ctx, l.KVBytesPerElem)
		attnTime := math.Max(dc.FLOPs*batch/lc.peak, dc.KVBytes*batch/lc.mem)
		linTime := math.Max(2*l.Model.Params().ActiveNonEmbedding*batch/lc.peak, l.WeightBytes/lc.mem)
		compute := (attnTime + linTime) / layers
		if (compute < a.CommTime) != tc.commBound {
			t.Fatalf("ctx %d: compute/layer %v vs comm %v, want commBound=%v", tc.ctx, compute, a.CommTime, tc.commBound)
		}
		want := 2 * math.Max(a.CommTime, compute) * layers
		if tc.commBound && want != a.TPOT {
			t.Fatalf("ctx %d: closed form %v, want paper TPOT %v", tc.ctx, want, a.TPOT)
		}
		got := l.decodeStepTime(lc, batch, attn, 1)
		if rel := math.Abs(got-want) / want; rel > 1e-12 {
			t.Errorf("ctx %d: step time %.6fms, want closed form %.6fms (rel %.2e)", tc.ctx, got*1e3, want*1e3, rel)
		}
	}
}

// Metamorphic: doubling the interconnect bandwidth halves the comm leg
// and leaves every compute leg alone, so a comm-bound step halves and
// a compute-bound step is unchanged. Scaling by 2 is exact, so both
// hold bit for bit.
func TestInterconnectScalingMovesOnlyCommLeg(t *testing.T) {
	base := V3LatencyModel()
	fast := base
	fast.InterconnectBW *= 2
	lc := base.consts()
	const batch = 32
	for _, tc := range []struct {
		ctx       int
		commBound bool
	}{{512, true}, {32768, false}} {
		var attn batchAttention
		for i := 0; i < batch; i++ {
			base.addContextC(lc, &attn, tc.ctx)
		}
		var b, f inference.Legs
		lc.decodeLegs(&b, batch, attn, base.InterconnectBW, 1)
		lc.decodeLegs(&f, batch, attn, fast.InterconnectBW, 1)
		for _, legs := range []inference.Legs{b, f} {
			if (legs.Comm > legs.Compute()/legs.Layers) != tc.commBound {
				t.Fatalf("ctx %d: legs %+v, want commBound=%v at both bandwidths", tc.ctx, legs, tc.commBound)
			}
		}
		if f.Comm != b.Comm/2 {
			t.Errorf("ctx %d: comm leg %v at 2x bandwidth, want %v", tc.ctx, f.Comm, b.Comm/2)
		}
		if f.Comm = b.Comm; f != b {
			t.Errorf("ctx %d: bandwidth moved a compute leg: %+v vs %+v", tc.ctx, f, b)
		}
		slow, quick := base.decodeStepTime(lc, batch, attn, 1), fast.decodeStepTime(lc, batch, attn, 1)
		want := slow
		if tc.commBound {
			want = slow / 2
		}
		if quick != want {
			t.Errorf("ctx %d: step %v at 2x bandwidth, want %v (from %v)", tc.ctx, quick, want, slow)
		}
	}
}

// Every latency-model float must be finite: an ordered comparison with
// NaN is false, so a sign check alone lets it through and the run
// reports NaN latencies.
func TestLatencyModelValidate(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for name, mutate := range map[string]func(*LatencyModel){
		"Efficiency=NaN":             func(l *LatencyModel) { l.Efficiency = nan },
		"InterconnectBW=NaN":         func(l *LatencyModel) { l.InterconnectBW = nan },
		"InterconnectBW=Inf":         func(l *LatencyModel) { l.InterconnectBW = inf },
		"KVBytesPerElem=NaN":         func(l *LatencyModel) { l.KVBytesPerElem = nan },
		"KVBytesPerElem=Inf":         func(l *LatencyModel) { l.KVBytesPerElem = inf },
		"Accel.PeakFLOPS=NaN":        func(l *LatencyModel) { l.Accel.PeakFLOPS = nan },
		"Accel.PeakFLOPS=Inf":        func(l *LatencyModel) { l.Accel.PeakFLOPS = inf },
		"Accel.MemBandwidth=NaN":     func(l *LatencyModel) { l.Accel.MemBandwidth = nan },
		"Accel.MemBandwidth=Inf":     func(l *LatencyModel) { l.Accel.MemBandwidth = inf },
		"WeightBytes=NaN":            func(l *LatencyModel) { l.WeightBytes = nan },
		"WeightBytes=Inf":            func(l *LatencyModel) { l.WeightBytes = inf },
		"EP.HiddenBytes=NaN":         func(l *LatencyModel) { l.EP.HiddenBytes = nan },
		"EP.DispatchBytesPerElem=-5": func(l *LatencyModel) { l.EP.DispatchBytesPerElem = -5 },
		"EP.CombineBytesPerElem=NaN": func(l *LatencyModel) { l.EP.CombineBytesPerElem = nan },
	} {
		cfg := V3ServeConfig()
		mutate(&cfg.Latency)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: want validation error", name)
		}
	}
}

// Larger batches and longer contexts never make a step faster, and the
// KV-read leg must eventually dominate at long context.
func TestDecodeStepMonotonic(t *testing.T) {
	l := V3LatencyModel()
	prev := 0.0
	for _, b := range []int{1, 4, 16, 64} {
		var attn batchAttention
		for i := 0; i < b; i++ {
			l.addContextC(l.consts(), &attn, 4096)
		}
		dt := l.decodeStepTime(l.consts(), b, attn, 1)
		if dt <= prev {
			t.Errorf("step time not increasing at batch %d: %v <= %v", b, dt, prev)
		}
		prev = dt
	}
	var short, long batchAttention
	l.addContextC(l.consts(), &short, 512)
	l.addContextC(l.consts(), &long, 131072)
	if l.decodeStepTime(l.consts(), 1, long, 1) <= l.decodeStepTime(l.consts(), 1, short, 1) {
		t.Error("long context no slower than short")
	}
}

func TestPrefillTime(t *testing.T) {
	l := V3LatencyModel()
	lc := l.consts()
	if l.prefillTime(lc, 1024, 1) <= l.prefillTime(lc, 256, 1) {
		t.Error("prefill time not increasing in prompt length")
	}
	// At moderate prompt lengths prefill is dispatch/combine-bound:
	// per-token comm bytes x tokens x layers / bandwidth.
	want := lc.commPerToken * 512 * float64(l.Model.Layers) / l.InterconnectBW
	if got := l.prefillTime(lc, 512, 1); math.Abs(got-want)/want > 1e-12 {
		t.Errorf("prefill(512) = %v, want comm-bound %v", got, want)
	}
}

// A prefill can never finish faster than the resident weights can be
// streamed from HBM — the same memory-roofline leg a decode step pays.
// For a one-token prompt both the compute and comm legs are negligible,
// so the weight-streaming floor is the exact answer.
func TestPrefillTimeWeightStreamingFloor(t *testing.T) {
	l := V3LatencyModel()
	lc := l.consts()
	floor := l.WeightBytes / (l.Accel.MemBandwidth * l.Efficiency)
	if got := l.prefillTime(lc, 1, 1); math.Abs(got-floor)/floor > 1e-12 {
		t.Errorf("prefill(1) = %v, want weight-streaming floor %v", got, floor)
	}
	for _, tokens := range []int{1, 8, 64, 512, 4096} {
		if got := l.prefillTime(lc, tokens, 1); got < floor {
			t.Errorf("prefill(%d) = %v beats the weight-streaming floor %v", tokens, got, floor)
		}
	}
}

func TestKVConfigPaging(t *testing.T) {
	k := KVConfig{CapacityBytes: 1 << 30}
	if got := k.PagesFor(1); got != 1 {
		t.Errorf("PagesFor(1) = %d", got)
	}
	if got := k.PagesFor(64); got != 1 {
		t.Errorf("PagesFor(64) = %d", got)
	}
	if got := k.PagesFor(65); got != 2 {
		t.Errorf("PagesFor(65) = %d", got)
	}
	total := k.TotalPages(V3LatencyModel().Model.KVCacheBytesPerToken(1))
	// 576 latent+rope elements x 61 layers x 64 tokens per page.
	wantPage := 576.0 * 61 * 64
	if want := int((1 << 30) / wantPage); total != want {
		t.Errorf("TotalPages = %d, want %d", total, want)
	}
	p := &kvPool{total: total, fleet: new(int), ops: new(int)}
	if !p.tryAlloc(total) || p.tryAlloc(1) || *p.fleet != total {
		t.Error("pool over- or under-allocates")
	}
	p.release(total)
	if p.used != 0 || p.free() != total || *p.fleet != 0 {
		t.Errorf("release did not restore pool: %+v", p)
	}
	if *p.ops != 3 {
		t.Errorf("page-op counter = %d after two tryAlloc calls and one release, want 3", *p.ops)
	}
}

// A KV pool sized just above one worst-case request forces constant
// eviction; every request must still complete, via recompute.
func TestPreemptionUnderKVPressure(t *testing.T) {
	cfg := V3ServeConfig()
	cfg.Fleet.PrefillInstances, cfg.Fleet.DecodeInstances = 1, 1
	w := Workload{
		Arrival:    ArrivalPoisson,
		RatePerSec: 20,
		Requests:   40,
		Prompt:     Fixed(512),
		Output:     Fixed(512),
	}
	perToken := cfg.Latency.Model.KVCacheBytesPerToken(cfg.Latency.KVBytesPerElem)
	// Room for ~1.5 worst-case contexts: admission succeeds, growth evicts.
	cfg.KV.HBM.CapacityBytes = perToken * 1024 * 1.5
	rep := mustRun(t, cfg, w)
	if rep.Preemptions == 0 {
		t.Error("expected preemptions under KV pressure")
	}
	if rep.Completed != w.Requests {
		t.Errorf("completed %d of %d requests", rep.Completed, w.Requests)
	}
	if rep.PeakKVOccupancy < 0.6 {
		t.Errorf("peak KV occupancy %.2f suspiciously low for a pressured pool", rep.PeakKVOccupancy)
	}
}

// Too-small pools must be rejected up front rather than livelocking.
// TestReportCountsNonFiniteSamples: a NaN or ±Inf TTFT, TPOT or E2E
// sample is counted in DroppedSamples; finite ones are not.
func TestReportCountsNonFiniteSamples(t *testing.T) {
	w := Workload{Arrival: ArrivalPoisson, RatePerSec: 4, Requests: 10, Prompt: Fixed(64), Output: Fixed(16)}
	e := NewEngine()
	rep, err := e.Run(V3ServeConfig(), w)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DroppedSamples != 0 {
		t.Fatalf("healthy run dropped %d samples", rep.DroppedSamples)
	}
	// Each poisoned request yields two non-finite samples: NaN TTFT and
	// TPOT; +Inf E2E and TPOT; -Inf TTFT and +Inf TPOT.
	e.arena[0].firstToken = math.NaN()
	e.arena[1].done = math.Inf(1)
	e.arena[2].firstToken = math.Inf(-1)
	if got := e.report().DroppedSamples; got != 6 {
		t.Errorf("DroppedSamples = %d, want 6", got)
	}
}

func TestValidateRejectsImpossibleKV(t *testing.T) {
	cfg := V3ServeConfig()
	cfg.KV.HBM.CapacityBytes = 1 << 20
	_, err := Run(cfg, testWorkload(5, 10))
	if err == nil || !strings.Contains(err.Error(), "worst-case request") {
		t.Fatalf("want worst-case KV error, got %v", err)
	}
}

// A negative colocated stride is rejected; 0 means the default of 4.
func TestFleetConfigValidate(t *testing.T) {
	base := V3ServeConfig().Fleet
	for _, c := range []struct {
		name string
		mut  func(*FleetConfig)
		want string
	}{
		{"colocated negative stride", func(f *FleetConfig) { f.Colocated, f.ColocatedStride = true, -3 }, "negative colocated stride -3"},
		{"disaggregated negative stride", func(f *FleetConfig) { f.ColocatedStride = -1 }, "negative colocated stride -1"},
	} {
		f := base
		c.mut(&f)
		if err := f.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate() = %v, want %q", c.name, err, c.want)
		}
	}
	cfg := V3ServeConfig()
	cfg.Fleet.Colocated, cfg.Fleet.ColocatedStride = true, 0
	if err := cfg.Fleet.Validate(); err != nil {
		t.Fatalf("zero stride rejected: %v", err)
	}
	zero, err := json.Marshal(mustRun(t, cfg, testWorkload(6, 60)))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Fleet.ColocatedStride = 4
	four, err := json.Marshal(mustRun(t, cfg, testWorkload(6, 60)))
	if err != nil {
		t.Fatal(err)
	}
	if string(zero) != string(four) {
		t.Error("stride 0 did not run as the default stride 4")
	}
	cfg.Fleet.ColocatedStride = -3
	if _, err := Run(cfg, testWorkload(6, 60)); err == nil {
		t.Error("Run accepted a negative colocated stride")
	}
}

// The disaggregation headline: at high arrival rates a balanced
// prefill:decode split improves p99 TTFT over decode-SLO-protecting
// colocation without degrading TPOT, and beats aggressive colocation
// on TPOT interference.
func TestDisaggregationImprovesTTFTWithoutTPOTRegression(t *testing.T) {
	w := testWorkload(12, 400)
	base := V3ServeConfig()
	base.KV.HBM.CapacityBytes = 2 * units.GB

	protective := base
	protective.Fleet.Colocated = true
	protective.Fleet.ColocatedStride = 128
	protective.Fleet.PrefillInstances, protective.Fleet.DecodeInstances = 4, 4

	aggressive := base
	aggressive.Fleet.Colocated = true
	aggressive.Fleet.ColocatedStride = 4
	aggressive.Fleet.PrefillInstances, aggressive.Fleet.DecodeInstances = 4, 4

	disagg := base
	disagg.Fleet.PrefillInstances, disagg.Fleet.DecodeInstances = 4, 4

	prot := mustRun(t, protective, w)
	aggr := mustRun(t, aggressive, w)
	dis := mustRun(t, disagg, w)

	if dis.TTFT.P99 >= prot.TTFT.P99 {
		t.Errorf("disagg p99 TTFT %.3fs not better than protective colocated %.3fs", dis.TTFT.P99, prot.TTFT.P99)
	}
	if dis.TPOT.P99 > prot.TPOT.P99*1.05 {
		t.Errorf("disagg p99 TPOT %.4fs degrades vs protective colocated %.4fs", dis.TPOT.P99, prot.TPOT.P99)
	}
	if dis.TPOT.P99 >= aggr.TPOT.P99 {
		t.Errorf("disagg p99 TPOT %.4fs not better than aggressive colocated %.4fs (prefill interference should hurt colocated)",
			dis.TPOT.P99, aggr.TPOT.P99)
	}
}

// A single traced request has fully analytic latency: TTFT is exactly
// the prefill time, and each decode step advances one token.
func TestTraceReplayAnalytic(t *testing.T) {
	cfg := V3ServeConfig()
	const prompt, output = 600, 4
	w := Workload{Arrival: ArrivalTrace, Trace: []Request{{Arrival: 0.5, PromptTokens: prompt, OutputTokens: output}}}
	rep := mustRun(t, cfg, w)
	wantTTFT := cfg.Latency.prefillTime(cfg.Latency.consts(), prompt, 1)
	if math.Abs(rep.TTFT.Mean-wantTTFT) > 1e-9 {
		t.Errorf("TTFT %.6f, want prefill time %.6f", rep.TTFT.Mean, wantTTFT)
	}
	if rep.DecodeSteps != output-1 {
		t.Errorf("decode steps %d, want %d", rep.DecodeSteps, output-1)
	}
	if rep.Completed != 1 || rep.Preemptions != 0 {
		t.Errorf("unexpected report: %+v", rep)
	}
}

// MTP must lift tokens/step toward the analytic expectation and cut
// TPOT accordingly.
func TestMTPSpeculativeDecoding(t *testing.T) {
	cfg := V3ServeConfig()
	w := testWorkload(6, 200)
	off := mustRun(t, cfg, w)

	spec := mtp.V3Config()
	cfg.MTP = &spec
	on := mustRun(t, cfg, w)

	if off.TokensPerStep != 1 {
		t.Errorf("baseline tokens/step = %v, want 1", off.TokensPerStep)
	}
	want := spec.ExpectedTokensPerStep()
	// Finishing requests truncate the last draft, so the simulated
	// value sits slightly below the infinite-stream expectation.
	if on.TokensPerStep < want-0.05 || on.TokensPerStep > want {
		t.Errorf("MTP tokens/step = %.3f, want ~%.3f", on.TokensPerStep, want)
	}
	if on.TPOT.P50 >= off.TPOT.P50 {
		t.Errorf("MTP did not improve median TPOT: %.4f vs %.4f", on.TPOT.P50, off.TPOT.P50)
	}
}

// An overloaded run outlives the traffic-estimated horizon many times
// over. The sampler must decimate (halve resolution, double the
// stride) rather than stop at the old 4x cap, which froze the timeline
// mid-run and biased MeanKVOccupancy toward the warm-up window.
func TestTimelineCoversOverloadedMakespan(t *testing.T) {
	cfg := V3ServeConfig()
	cfg.Fleet.PrefillInstances, cfg.Fleet.DecodeInstances = 1, 1
	w := Workload{
		Arrival:    ArrivalPoisson,
		RatePerSec: 100,
		Requests:   200,
		Prompt:     Fixed(512),
		Output:     Fixed(256),
	}
	rep := mustRun(t, cfg, w)
	// The scenario must actually exceed the old sampling cap
	// (4 x the horizon estimated from the arrival window).
	lastArrival := float64(rep.Requests) / rep.OfferedRate
	if rep.Makespan <= 4*(lastArrival+1) {
		t.Fatalf("run not overloaded enough to exercise decimation: makespan %.1fs, horizon %.1fs",
			rep.Makespan, lastArrival+1)
	}
	// At least one decimation leaves the buffer between half-full and
	// the cap.
	if n := len(rep.Timeline); n < 2*timelineSamples || n > 4*timelineSamples {
		t.Errorf("timeline has %d points, want within [%d, %d]", n, 2*timelineSamples, 4*timelineSamples)
	}
	last := rep.Timeline[len(rep.Timeline)-1].Time
	if last < 0.8*rep.Makespan {
		t.Errorf("timeline stops at %.1fs of a %.1fs makespan (sampler froze)", last, rep.Makespan)
	}
	prev := -1.0
	for _, p := range rep.Timeline {
		if p.Time <= prev {
			t.Fatalf("decimated timeline not strictly increasing at %v", p.Time)
		}
		prev = p.Time
	}
}

func TestTimelineWellFormed(t *testing.T) {
	rep := mustRun(t, V3ServeConfig(), testWorkload(8, 150))
	if len(rep.Timeline) == 0 {
		t.Fatal("no timeline samples")
	}
	prev := -1.0
	for _, p := range rep.Timeline {
		if p.Time <= prev {
			t.Fatalf("timeline not strictly increasing at %v", p.Time)
		}
		prev = p.Time
		if p.KVOccupancy < 0 || p.KVOccupancy > 1 || p.ActiveBatch < 0 {
			t.Fatalf("malformed timeline point %+v", p)
		}
	}
	if rep.MeanKVOccupancy < 0 || rep.MeanKVOccupancy > rep.PeakKVOccupancy {
		t.Errorf("mean occupancy %v inconsistent with peak %v", rep.MeanKVOccupancy, rep.PeakKVOccupancy)
	}
}

// TestArrivalsPrecedeEventsOnTimeTies replays a trace with two arrivals
// at the instant a prefill unit crashes. Arrivals go first on a time
// tie, in trace order: the first t=1 arrival (300-token prompt) takes
// idle unit 0, the second takes unit 1, and only then does the crash
// fire — orphaning exactly the first one, which retries on unit 1. Had
// the crash gone first, unit 0 would have died idle and nothing would
// be orphaned.
func TestArrivalsPrecedeEventsOnTimeTies(t *testing.T) {
	cfg := V3ServeConfig()
	cfg.Fleet.PrefillInstances = 2
	cfg.Fleet.DecodeInstances = 1
	cfg.Resilience.MaxRetries = 3
	cfg.Resilience.Faults = &FaultPlan{Events: []FaultEvent{{At: 1, Kind: FaultCrash, Prefill: true, Instance: 0}}}
	w := Workload{Arrival: ArrivalTrace, Trace: []Request{
		{Arrival: 1, PromptTokens: 300, OutputTokens: 8},
		{Arrival: 0, PromptTokens: 128, OutputTokens: 8},
		{Arrival: 1, PromptTokens: 200, OutputTokens: 8},
	}}
	rep := mustRun(t, cfg, w)
	want := Incident{At: 1, Instance: 0, Prefill: true, Kind: "crash", Orphaned: 1, KVTokensLost: 300}
	if len(rep.Incidents) != 1 {
		t.Fatalf("got %d incidents, want 1: %+v", len(rep.Incidents), rep.Incidents)
	}
	got := rep.Incidents[0]
	got.Recovery = 0
	if got != want {
		t.Fatalf("incident %+v, want %+v", got, want)
	}
	if rep.Completed != 3 || rep.Failed != 0 || rep.Shed != 0 ||
		rep.Retried != 1 || rep.Retries != 1 || rep.AffectedRequests != 1 || rep.KVTokensLost != 300 {
		t.Fatalf("completed/failed/shed %d/%d/%d, retried/retries %d/%d, affected %d, KV lost %d; want 3/0/0, 1/1, 1, 300",
			rep.Completed, rep.Failed, rep.Shed, rep.Retried, rep.Retries, rep.AffectedRequests, rep.KVTokensLost)
	}
}
