package servesim

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"dsv3/internal/parallel"
	"dsv3/internal/units"
)

// tieredConfig is the reference tiered deployment the tests exercise:
// an HBM pool small enough that multi-turn traffic forces offload, a
// DRAM tier, a flash tier, and the prefix cache.
func tieredConfig() Config {
	cfg := V3ServeConfig()
	cfg.KV.HBM.CapacityBytes = 2 * units.GB / 25
	cfg.KV.ChunkTokens = 256
	cfg.KV.Tiers = []KVTierConfig{
		{Name: "dram", CapacityBytes: 8 * units.GB, ReadBW: 24 * units.GB, WriteBW: 16 * units.GB, ChunkLatency: 50 * units.Microsecond},
		{Name: "flash", CapacityBytes: 64 * units.GB, ReadBW: 6 * units.GB, WriteBW: 3 * units.GB, ChunkLatency: 400 * units.Microsecond},
	}
	cfg.KV.PrefixCache = true
	return cfg
}

// sessionWorkload is multi-turn traffic with narrow uniform lengths, so
// the tight HBM pool above admits every single request but not the
// steady-state concurrency — the offload regime.
func sessionWorkload(rate float64, n int) Workload {
	return Workload{
		Arrival:    ArrivalPoisson,
		RatePerSec: rate,
		Requests:   n,
		Prompt:     LengthDist{Kind: DistUniform, Mean: 256, Min: 192, Max: 320},
		Output:     LengthDist{Kind: DistUniform, Mean: 256, Min: 192, Max: 320},
		Turns:      3,
		ThinkTime:  2,
	}
}

// singleTurn strips the session structure from a workload.
func singleTurn(w Workload) Workload {
	w.Turns, w.ThinkTime = 0, 0
	return w
}

func TestParseKVTiers(t *testing.T) {
	tiers, err := ParseKVTiers("name=dram,cap=8,read=24,write=16,lat=0.05/name=flash,cap=64,read=6")
	if err != nil {
		t.Fatal(err)
	}
	want := []KVTierConfig{
		{Name: "dram", CapacityBytes: 8 * units.GB, ReadBW: 24 * units.GB, WriteBW: 16 * units.GB, ChunkLatency: 0.05 * units.Millisecond},
		{Name: "flash", CapacityBytes: 64 * units.GB, ReadBW: 6 * units.GB, WriteBW: 6 * units.GB},
	}
	if !reflect.DeepEqual(tiers, want) {
		t.Fatalf("parsed %+v, want %+v", tiers, want)
	}
}

// TestParseKVTiersRejects pins that malformed specs name the offending
// tier (and clause) instead of failing opaquely.
func TestParseKVTiersRejects(t *testing.T) {
	cases := []struct {
		spec, want string
	}{
		{"", "empty KV tier spec"},
		{"   ", "empty KV tier spec"},
		{"cap=8", "kv tier 1: needs cap and read"},
		{"cap=8,read=6/read=2", "kv tier 2: needs cap and read"},
		{"cap=8,read=x", `kv tier 1: bad read value "x"`},
		{"cap=8,read=6,zap=2", `kv tier 1: unknown key "zap"`},
		{"cap=8,,read=6", "kv tier 1: empty clause"},
		{"cap8,read=6", `clause "cap8" is not key=value`},
		{"cap=-3,read=6", "kv tier 1: non-positive capacity"},
		{"cap=8,read=6/cap=1,read=0", "kv tier 2: non-positive read bandwidth"},
		{"name=dram,cap=8,read=NaN", "kv tier 1: non-finite read bandwidth NaN"},
		{"cap=NaN,read=6", "kv tier 1: non-finite capacity NaN"},
		{"cap=Inf,read=6", "kv tier 1: non-finite capacity +Inf"},
		{"cap=8,read=6,write=Inf", "kv tier 1: non-finite write bandwidth +Inf"},
		{"cap=8,read=6,lat=NaN", "kv tier 1: non-finite chunk latency NaN"},
	}
	for _, c := range cases {
		_, err := ParseKVTiers(c.spec)
		if err == nil {
			t.Errorf("ParseKVTiers(%q): expected error", c.spec)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("ParseKVTiers(%q) = %q, want substring %q", c.spec, err, c.want)
		}
	}
}

// TestKVHierarchyValidate: the aggregate validator reports every
// problem at once, with tiers named by index and label.
func TestKVHierarchyValidate(t *testing.T) {
	k := KVHierarchy{
		HBM:         KVConfig{CapacityBytes: units.GB},
		ChunkTokens: -4,
		Tiers:       []KVTierConfig{{Name: "dram", CapacityBytes: units.GB, ReadBW: 0, WriteBW: units.GB}},
		PrefixCache: true,
	}
	err := k.Validate()
	if err == nil {
		t.Fatal("expected errors")
	}
	for _, want := range []string{
		"negative chunk tokens -4",
		"KV tier 1 (dram)",
		"non-positive read bandwidth",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("Validate() = %q, missing %q", err, want)
		}
	}
	k.Tiers = nil
	k.ChunkTokens = 0
	if err := k.Validate(); err == nil || !strings.Contains(err.Error(), "prefix cache needs") {
		t.Errorf("prefix cache without tiers not rejected: %v", err)
	}

	// Non-finite sizes and rates are rejected, not silently run.
	nan, inf := math.NaN(), math.Inf(1)
	hbm := KVConfig{CapacityBytes: units.GB}
	tier := KVTierConfig{Name: "dram", CapacityBytes: units.GB, ReadBW: units.GB, WriteBW: units.GB}
	for _, c := range []struct {
		name string
		mut  func(*KVHierarchy)
		want string
	}{
		{"NaN HBM capacity", func(k *KVHierarchy) { k.HBM.CapacityBytes = nan }, "non-finite KV config"},
		{"+Inf HBM capacity", func(k *KVHierarchy) { k.HBM.CapacityBytes = inf }, "non-finite KV config"},
		{"NaN tier capacity", func(k *KVHierarchy) { k.Tiers[0].CapacityBytes = nan }, "KV tier 1 (dram): non-finite capacity NaN"},
		{"+Inf read bandwidth", func(k *KVHierarchy) { k.Tiers[0].ReadBW = inf }, "non-finite read bandwidth +Inf"},
		{"NaN write bandwidth", func(k *KVHierarchy) { k.Tiers[0].WriteBW = nan }, "non-finite write bandwidth NaN"},
		{"+Inf chunk latency", func(k *KVHierarchy) { k.Tiers[0].ChunkLatency = inf }, "non-finite chunk latency +Inf"},
	} {
		k := KVHierarchy{HBM: hbm, Tiers: []KVTierConfig{tier}}
		c.mut(&k)
		if err := k.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate() = %v, want %q", c.name, err, c.want)
		}
	}
}

// TestTieredEngineReuseMatchesFresh extends the PR-5 pooling contract
// to the hierarchy: tiered runs on a reused engine must be
// byte-identical to fresh engines, across configs that exercise
// offload, reload, demotion and drop back to back.
func TestTieredEngineReuseMatchesFresh(t *testing.T) {
	cfgA := tieredConfig()
	// cfgB forces demotions and drops: DRAM holds only a few chunks and
	// flash barely more, so prefix stores and offloads collide.
	cfgB := tieredConfig()
	cfgB.KV.Tiers = []KVTierConfig{
		{Name: "dram", CapacityBytes: 0.04 * units.GB, ReadBW: 24 * units.GB, WriteBW: 16 * units.GB},
		{Name: "flash", CapacityBytes: 0.08 * units.GB, ReadBW: 6 * units.GB, WriteBW: 3 * units.GB, ChunkLatency: 400 * units.Microsecond},
	}
	cfgB.Seed = 9
	// cfgC: plain single-turn traffic through a tiered config (prefix
	// cache idle, offload live), then shrink back to cfgA.
	cfgC := tieredConfig()
	cfgC.KV.PrefixCache = false
	runs := []struct {
		cfg Config
		w   Workload
	}{
		{cfgA, sessionWorkload(2.5, 120)},
		{cfgB, sessionWorkload(3, 150)},
		{cfgC, singleTurn(sessionWorkload(6, 80))},
		{cfgA, sessionWorkload(2.5, 120)},
	}
	eng := NewEngine()
	exercised := Report{}
	for i, run := range runs {
		pooled, err := eng.Run(run.cfg, run.w)
		if err != nil {
			t.Fatalf("run %d (pooled): %v", i, err)
		}
		fresh, err := Run(run.cfg, run.w)
		if err != nil {
			t.Fatalf("run %d (fresh): %v", i, err)
		}
		if !reflect.DeepEqual(pooled, fresh) {
			t.Fatalf("run %d: pooled tiered report differs from fresh engine", i)
		}
		if pj, fj := reportJSON(t, pooled), reportJSON(t, fresh); string(pj) != string(fj) {
			t.Fatalf("run %d: pooled JSON differs from fresh:\n%s\n%s", i, pj, fj)
		}
		exercised.KVOffloads += pooled.KVOffloads
		exercised.KVReloads += pooled.KVReloads
		exercised.TierDemotions += pooled.TierDemotions
		exercised.TierDrops += pooled.TierDrops
		exercised.PrefixHits += pooled.PrefixHits
	}
	// The parity above only means something if the tier machinery
	// actually ran.
	if exercised.KVOffloads == 0 || exercised.KVReloads == 0 {
		t.Errorf("offload/reload path not exercised: %+v", exercised)
	}
	if exercised.TierDemotions == 0 || exercised.TierDrops == 0 {
		t.Errorf("demotion/drop path not exercised: %+v", exercised)
	}
	if exercised.PrefixHits == 0 {
		t.Errorf("prefix cache not exercised: %+v", exercised)
	}
}

// TestTieredWorkerCountDeterminism: tier eviction and reload decisions
// must not observe the worker pool — a tiered rate sweep is
// point-by-point identical at any width.
func TestTieredWorkerCountDeterminism(t *testing.T) {
	cfg := tieredConfig()
	w := sessionWorkload(1, 90)
	rates := []float64{1.5, 2.5, 3.5}
	sweep := func(workers int) []*Report {
		prev := parallel.SetWorkers(workers)
		defer parallel.SetWorkers(prev)
		reps, err := parallel.Map(len(rates), func(i int) (*Report, error) {
			pc, pw := cfg, w
			pc.Seed = parallel.DeriveSeed(cfg.Seed, i)
			pw.RatePerSec = rates[i]
			return Run(pc, pw)
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return reps
	}
	serial := sweep(1)
	par := sweep(8)
	for i := range serial {
		if !reflect.DeepEqual(serial[i], par[i]) {
			t.Errorf("rate %.1f: tiered report differs between worker counts", rates[i])
		}
		if serial[i].KVOffloads == 0 && serial[i].PrefixHits == 0 {
			t.Errorf("rate %.1f: hierarchy idle, determinism check vacuous", rates[i])
		}
	}
}

// TestHierarchyDisabledZeroFields: without tiers the report carries no
// hierarchy fields at all — the golden corpus depends on the disabled
// path being indistinguishable from the pre-hierarchy engine.
func TestHierarchyDisabledZeroFields(t *testing.T) {
	cfg := V3ServeConfig()
	rep, err := Run(cfg, sessionWorkload(3, 120))
	if err != nil {
		t.Fatal(err)
	}
	if rep.KVOffloads != 0 || rep.KVReloads != 0 || rep.TierDemotions != 0 ||
		rep.TierDrops != 0 || rep.ReloadStall != 0 ||
		rep.PrefixHits != 0 || rep.PrefixMisses != 0 || rep.PrefixHitTokens != 0 ||
		rep.KVTierMoves != nil {
		t.Fatalf("hierarchy fields non-zero with tiers disabled: %+v", rep)
	}
}

// TestPrefixHitAccounting bounds the cache: hits happen at low rate,
// and the tokens served from cache never exceed the chunk-floored
// prompts of the session turns that could have hit (turn >= 1).
func TestPrefixHitAccounting(t *testing.T) {
	cfg := tieredConfig()
	w := sessionWorkload(0.5, 90)
	rep, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PrefixHits == 0 {
		t.Fatal("expected prefix hits under light multi-turn traffic")
	}
	bound := 0
	for _, r := range w.Generate(parallel.DeriveSeed(cfg.Seed, 0)) {
		if r.Turn >= 1 {
			bound += r.PromptTokens - r.PromptTokens%cfg.KV.ChunkTokens
		}
	}
	if rep.PrefixHitTokens > bound {
		t.Fatalf("PrefixHitTokens %d exceeds chunk-floored later-turn prompts %d", rep.PrefixHitTokens, bound)
	}
	if rep.PrefixHits+rep.PrefixMisses == 0 || rep.PrefixHits > rep.PrefixHits+rep.PrefixMisses {
		t.Fatalf("inconsistent hit accounting: %d hits / %d misses", rep.PrefixHits, rep.PrefixMisses)
	}
}

// TestPrefixCacheControlledSession pins the exact hit arithmetic on a
// hand-built two-turn session: turn 1's prompt contains turn 0's full
// context (768 tokens = 3 exact chunks), so the cache serves precisely
// those chunks.
func TestPrefixCacheControlledSession(t *testing.T) {
	cfg := tieredConfig()
	cfg.KV.HBM = V3ServeConfig().KV.HBM // ample HBM: no offload noise
	w := Workload{
		Arrival: ArrivalTrace,
		Trace: []Request{
			{Arrival: 0, PromptTokens: 512, OutputTokens: 256, Session: 1, Turn: 0},
			{Arrival: 60, PromptTokens: 768, OutputTokens: 64, Session: 1, Turn: 1},
		},
	}
	rep, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PrefixHits != 1 || rep.PrefixMisses != 1 {
		t.Fatalf("got %d hits / %d misses, want 1 / 1", rep.PrefixHits, rep.PrefixMisses)
	}
	if rep.PrefixHitTokens != 768 {
		t.Fatalf("got %d hit tokens, want 768", rep.PrefixHitTokens)
	}
	if len(rep.KVTierMoves) != 3 || rep.KVTierMoves[0].Tier != "hbm" {
		t.Fatalf("unexpected tier moves: %+v", rep.KVTierMoves)
	}
	if rep.KVTierMoves[0].BytesOut == 0 || rep.KVTierMoves[1].BytesIn == 0 {
		t.Fatalf("prefix store moved no bytes: %+v", rep.KVTierMoves)
	}
}

// TestKVExhaustedByReloadsPreemptsGrower pins a tiered run whose only
// active grower meets a pool filled by requests admitted for a reload:
// those sit in the instance's reload set, out of the victim search, so
// the grower must give way itself instead of failing the run with
// "KV exhausted with no preemption victim".
func TestKVExhaustedByReloadsPreemptsGrower(t *testing.T) {
	cfg := tieredConfig()
	cfg.Seed = 71
	w := sessionWorkload(4, 2000)
	rep, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if n := rep.Completed + rep.Failed + rep.Shed; n != w.Requests {
		t.Fatalf("resolved %d of %d requests", n, w.Requests)
	}
	if rep.KVOffloads == 0 || rep.KVReloads == 0 {
		t.Fatalf("offload/reload path not exercised: %d offloads, %d reloads", rep.KVOffloads, rep.KVReloads)
	}
}
