// Benchmarks of the numerics kernels the paper's tables and figures
// rest on and of the serving engine. Run with:
//
//	go test -bench=. -benchmem
//
// The per-experiment benchmarks (BenchmarkTable1KVCache ...
// BenchmarkPlaneFailure) live beside their runners in
// internal/experiments.
package dsv3

import (
	"math/rand"
	"testing"

	"dsv3/internal/cluster"
	"dsv3/internal/collective"
	"dsv3/internal/experiments"
	"dsv3/internal/moe"
	"dsv3/internal/pipeline"
	"dsv3/internal/servesim"
	"dsv3/internal/units"
)

// --- Kernel-level numerics benches ---

func BenchmarkLogFMTCodec(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tile := make([]float64, 128)
	for i := range tile {
		tile[i] = rng.NormFloat64()
	}
	codec := NewLogFMT(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := codec.Encode(tile)
		if out := enc.Decode(); len(out) != 128 {
			b.Fatal("bad decode")
		}
	}
	b.SetBytes(128)
}

func BenchmarkFP8GEMM(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	a := NewMatrix(16, 512)
	bb := NewMatrix(512, 16)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	for i := range bb.Data {
		bb.Data[i] = rng.NormFloat64()
	}
	cfg := DeepSeekV3Recipe()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FP8GEMM(a, bb, cfg)
	}
}

func BenchmarkE4M3Quantize(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 4096)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	dst := make([]float64, len(xs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		E4M3.QuantizeSlice(dst, xs)
	}
	b.SetBytes(int64(len(xs) * 8))
}

func BenchmarkFlowSimAllToAll32(b *testing.B) {
	c, err := cluster.Cached(H800Config(4, MPFT))
	if err != nil {
		b.Fatal(err)
	}
	opts := DefaultCollectiveOpts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AllToAll(c, 32, 1*units.GiB, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllToAll128Cold is one 128-GPU MPFT all-to-all from nothing:
// each op builds a fresh cluster, so its plane-path cache starts empty,
// and runs the collective on a fresh scratch, so the path sets and every
// Simulate table are charged. scripts/alloc_gate.sh pins its allocs/op
// and B/op.
func BenchmarkAllToAll128Cold(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, err := cluster.Build(H800Config(16, MPFT))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := collective.NewScratch().AllToAll(c, 128, 1*units.GiB, collective.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGateRoute measures the routing hot path the DeepEP traffic
// generator runs per token: an allocation-free moe.Router with reusable
// scratch (0 allocs/op).
func BenchmarkGateRoute(b *testing.B) {
	g := V3Gate()
	router := moe.NewRouter(g)
	rng := rand.New(rand.NewSource(4))
	scores := make([]float64, g.Experts)
	g.RandomScoresInto(scores, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if experts := router.Route(scores, nil); len(experts) != 8 {
			b.Fatal("bad route")
		}
	}
}

// BenchmarkServeEngine measures the steady-state cost of one serving
// simulation on a reused engine — the unit of work every
// CapacityPlanner probe repeats. The engine's pools (event heap,
// request arena, per-instance queues, report scratch) are warm after
// the first run, so allocs/op here is the true marginal footprint.
func BenchmarkServeEngine(b *testing.B) {
	cfg := V3ServeConfig()
	w := ServeWorkload{
		Arrival:    ArrivalPoisson,
		RatePerSec: 6,
		Requests:   200,
		Prompt:     LogNormalLength(1024, 0.5),
		Output:     LogNormalLength(512, 0.5),
	}
	eng := NewServeEngine()
	if _, err := eng.Run(cfg, w); err != nil { // warm the pools
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := eng.Run(cfg, w)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Completed != w.Requests {
			b.Fatalf("completed %d of %d requests", rep.Completed, w.Requests)
		}
	}
}

// BenchmarkServeEngineTiered measures the same steady-state unit of
// work with the KV hierarchy live: multi-turn sessions through a tight
// HBM pool, so offload/reload, tier eviction and the prefix cache all
// run on the warm engine. The hierarchy is scratch-backed (chunk
// counters, a free-listed entry arena, a cleared session map), so the
// marginal footprint stays pinned alongside the flat-pool benchmark.
func BenchmarkServeEngineTiered(b *testing.B) {
	cfg := V3ServeConfig()
	cfg.KV.HBM.CapacityBytes = 0.08e9
	cfg.KV.ChunkTokens = 256
	cfg.KV.Tiers = []ServeKVTierConfig{
		{Name: "dram", CapacityBytes: 8e9, ReadBW: 24e9, WriteBW: 16e9, ChunkLatency: 50e-6},
		{Name: "flash", CapacityBytes: 64e9, ReadBW: 6e9, WriteBW: 3e9, ChunkLatency: 400e-6},
	}
	cfg.KV.PrefixCache = true
	w := ServeWorkload{
		Arrival:    ArrivalPoisson,
		RatePerSec: 2.5,
		Requests:   200,
		Prompt:     ServeLengthDist{Kind: DistUniform, Mean: 256, Min: 192, Max: 320},
		Output:     ServeLengthDist{Kind: DistUniform, Mean: 256, Min: 192, Max: 320},
		Turns:      3,
		ThinkTime:  2,
	}
	eng := NewServeEngine()
	rep, err := eng.Run(cfg, w) // warm the pools
	if err != nil {
		b.Fatal(err)
	}
	if rep.KVOffloads == 0 || rep.PrefixHits == 0 {
		b.Fatalf("hierarchy idle (offloads=%d hits=%d); benchmark would not cover it", rep.KVOffloads, rep.PrefixHits)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := eng.Run(cfg, w)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Completed != w.Requests {
			b.Fatalf("completed %d of %d requests", rep.Completed, w.Requests)
		}
	}
}

// BenchmarkServeEngineTraced measures the tiered unit of work with the
// full observability stack live: a trace recorder capturing every
// lifecycle event, a metrics registry sampling every 0.5 s, and a
// crash/recover fault plan with retries so incident and backoff events
// flow too. A warm recorder appends into reused buffers (formatting
// happens only at export), so the traced budget stays O(1) per run —
// the enabled-path half of the zero-cost discipline.
func BenchmarkServeEngineTraced(b *testing.B) {
	cfg := V3ServeConfig()
	cfg.KV.HBM.CapacityBytes = 0.08e9
	cfg.KV.ChunkTokens = 256
	cfg.KV.Tiers = []ServeKVTierConfig{
		{Name: "dram", CapacityBytes: 8e9, ReadBW: 24e9, WriteBW: 16e9, ChunkLatency: 50e-6},
		{Name: "flash", CapacityBytes: 64e9, ReadBW: 6e9, WriteBW: 3e9, ChunkLatency: 400e-6},
	}
	cfg.KV.PrefixCache = true
	cfg.Resilience.Faults = &ServeFaultPlan{
		Events: []ServeFaultEvent{
			{At: 6, Kind: FaultCrash, Instance: 1},
			{At: 14, Kind: FaultRecover, Instance: 1},
		},
	}
	cfg.Resilience.MaxRetries = 3
	w := ServeWorkload{
		Arrival:    ArrivalPoisson,
		RatePerSec: 2.5,
		Requests:   200,
		Prompt:     ServeLengthDist{Kind: DistUniform, Mean: 256, Min: 192, Max: 320},
		Output:     ServeLengthDist{Kind: DistUniform, Mean: 256, Min: 192, Max: 320},
		Turns:      3,
		ThinkTime:  2,
	}
	eng := NewServeEngine()
	rec := NewServeTraceRecorder()
	reg := NewServeMetricsRegistry(0.5)
	eng.AttachTracer(rec)
	eng.AttachMetrics(reg)
	rep, err := eng.Run(cfg, w) // warm the engine and the recorder
	if err != nil {
		b.Fatal(err)
	}
	if rep.KVOffloads == 0 || len(rep.Incidents) == 0 || rep.Retried == 0 {
		b.Fatalf("trace sparse (offloads=%d incidents=%d retried=%d); benchmark would not cover it",
			rep.KVOffloads, len(rep.Incidents), rep.Retried)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(cfg, w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeEngineHazard measures the serving unit of work with
// the full cross-layer hazard stack live: a plane degrade/heal pair, a
// 0.1% SDC rate paying Freivalds verification every step, EWMA
// gray-failure detection with quarantine repair, p95-tracked hedging,
// and retries. Hazard state is engine-owned and recycled (counter
// slices, the hedge clone pool, the EWMA trackers), so the marginal
// allocation budget over the clean engine stays pinned in
// scripts/alloc_gate.sh.
func BenchmarkServeEngineHazard(b *testing.B) {
	cfg := V3ServeConfig()
	cfg.KV.HBM.CapacityBytes = 0.4e9
	planes, err := ParseServeFaultEvents("degrade@4:d1:6/8,heal@16:d1")
	if err != nil {
		b.Fatal(err)
	}
	cfg.Resilience.Faults = &ServeFaultPlan{Events: planes}
	cfg.Resilience.Hazards = &ServeHazardPlan{
		SDCRate:          0.001,
		VerifyTrials:     8,
		DetectThreshold:  1.25,
		QuarantineRepair: 4,
	}
	cfg.Resilience.Hedge = servesim.HedgePolicy{Delay: 4, TrackP95: true}
	cfg.Resilience.MaxRetries = 3
	w := ServeWorkload{
		Arrival:    ArrivalPoisson,
		RatePerSec: 5,
		Requests:   200,
		Prompt:     LogNormalLength(1024, 0.5),
		Output:     LogNormalLength(512, 0.5),
	}
	eng := NewServeEngine()
	rep, err := eng.Run(cfg, w) // warm the pools
	if err != nil {
		b.Fatal(err)
	}
	if rep.CorruptSteps == 0 || rep.Hedges == 0 {
		b.Fatalf("hazards sparse (sdc=%d hedges=%d); benchmark would not cover them",
			rep.CorruptSteps, rep.Hedges)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(cfg, w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeFleet measures the fleet-scale unit of work: the
// 1000-instance reference deployment (600 prefill + 400 decode)
// absorbing a scaled-down slice of the serve-fleet experiment's traffic
// on a warm pooled engine. Its allocs/op is pinned in
// scripts/alloc_gate.sh alongside the small engine's.
func BenchmarkServeFleet(b *testing.B) { benchServeFleet(b, 1) }

// BenchmarkServeFleetWide is the same run on a 4x fleet (2400 prefill +
// 1600 decode) at 4x the rate, so each instance sees the same traffic:
// per-event bookkeeping that scaled with the fleet would show here as
// ns/op growing faster than the request count.
func BenchmarkServeFleetWide(b *testing.B) { benchServeFleet(b, 4) }

// BenchmarkServeFleetCold is the BenchmarkServeFleet run on a fresh
// engine per op, so every pool is built from nothing: its B/op is what
// one cold 50K-request fleet run allocates, dominated by the per-request
// arena. scripts/alloc_gate.sh pins its allocs/op and B/op.
func BenchmarkServeFleetCold(b *testing.B) {
	cfg := experiments.FleetConfig(79)
	w := experiments.FleetWorkload(11000)
	w.Requests = 50_000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := NewServeEngine().Run(cfg, w)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Completed != w.Requests {
			b.Fatalf("completed %d of %d requests", rep.Completed, w.Requests)
		}
	}
}

func benchServeFleet(b *testing.B, scale int) {
	cfg := experiments.FleetConfig(79)
	cfg.Fleet.PrefillInstances *= scale
	cfg.Fleet.DecodeInstances *= scale
	w := experiments.FleetWorkload(11000 * float64(scale))
	w.Requests = 50_000
	eng := NewServeEngine()
	if _, err := eng.Run(cfg, w); err != nil { // warm the pools
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := eng.Run(cfg, w)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Completed != w.Requests {
			b.Fatalf("completed %d of %d requests", rep.Completed, w.Requests)
		}
	}
}

// BenchmarkCapacityPlanner measures a full doubling+bisection capacity
// search — many engine runs back to back on the planner's pooled
// engine.
func BenchmarkCapacityPlanner(b *testing.B) {
	cfg := V3ServeConfig()
	w := ServeWorkload{
		Arrival:    ArrivalPoisson,
		RatePerSec: 1,
		Requests:   150,
		Prompt:     LogNormalLength(1024, 0.5),
		Output:     LogNormalLength(512, 0.5),
	}
	p := DefaultServeCapacityPlanner()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := p.Find(cfg, w)
		if err != nil || res.MaxRate <= 0 {
			b.Fatalf("capacity search failed: %v (res %+v)", err, res)
		}
	}
}

func BenchmarkPipelineSimulate(b *testing.B) {
	costs := pipeline.Costs{F: 0.08, B: 0.14, W: 0.034}
	for i := 0; i < b.N; i++ {
		if _, err := pipeline.Simulate(pipeline.OneFOneB, 16, 60, costs); err != nil {
			b.Fatal(err)
		}
	}
}
