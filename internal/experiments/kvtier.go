package experiments

import (
	"fmt"

	"dsv3/internal/parallel"
	"dsv3/internal/results"
	"dsv3/internal/servesim"
	"dsv3/internal/units"
)

// kvTierArm is one point of the tiered-KV capacity frontier: a
// hierarchy (or the HBM-only baseline) at one offload chunk size.
type kvTierArm struct {
	Name        string
	ChunkTokens int
	Tiers       []servesim.KVTierConfig
	PrefixCache bool
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

func kvTierArms() []kvTierArm {
	tiers := kvTierHierarchy()
	return []kvTierArm{
		{Name: "hbm-only (recompute)"},
		{Name: "dram+flash", ChunkTokens: 64, Tiers: tiers, PrefixCache: true},
		{Name: "dram+flash", ChunkTokens: 256, Tiers: tiers, PrefixCache: true},
		{Name: "dram+flash", ChunkTokens: 1024, Tiers: tiers, PrefixCache: true},
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

// KVTierStudyPoint is one arm's capacity-search outcome.
type KVTierStudyPoint struct {
	Arm         string
	ChunkTokens int
	Result      *servesim.CapacityResult
}

// KVTierStudy bisects each KV-hierarchy arm to its maximum sustainable
// session rate at 90% SLO attainment under multi-turn traffic on an
// HBM-starved fleet. The HBM-only baseline relieves KV pressure by
// recompute preemption; the tiered arms offload cold contexts to
// DRAM/flash and reload them, and cache each session's grown prefix so
// later turns skip the cached prefill — the capacity/TTFT frontier vs
// chunk size the ROADMAP's LMCache-style sweep asks for. Every arm
// runs the same seed, so the offered sessions are identical.
func KVTierStudy(seed int64, quick bool) ([]KVTierStudyPoint, error) {
	arms := kvTierArms()
	w := kvTierWorkload(quick)
	planner := servesim.DefaultCapacityPlanner()
	if quick {
		planner.Tolerance = 0.08
	}
	return parallel.Map(len(arms), func(i int) (KVTierStudyPoint, error) {
		a := arms[i]
		cfg := servesim.V3ServeConfig()
		cfg.Seed = seed
		cfg.KV.HBM.CapacityBytes = 2 * units.GB / 25
		// Interactive first-token SLO: the study measures how the
		// hierarchy relieves KV pressure, and both relief paths
		// (recompute prefill vs prefix-hit reload) surface in TTFT.
		// A TPOT-bound SLO would hide them behind decode step time.
		cfg.SLO = servesim.SLO{TTFT: 0.4, TPOT: 50 * units.Millisecond}
		cfg.KV.ChunkTokens = a.ChunkTokens
		cfg.KV.Tiers = a.Tiers
		cfg.KV.PrefixCache = a.PrefixCache
		res, err := planner.Find(cfg, w)
		if err != nil {
			return KVTierStudyPoint{}, fmt.Errorf("%s chunk=%d: %w", a.Name, a.ChunkTokens, err)
		}
		return KVTierStudyPoint{Arm: a.Name, ChunkTokens: a.ChunkTokens, Result: res}, nil
	})
}

// KVTierStudyResult returns the tiered-KV frontier as a structured
// table.
func KVTierStudyResult(seed int64, quick bool) (*results.Table, error) {
	pts, err := KVTierStudy(seed, quick)
	if err != nil {
		return nil, err
	}
	t := results.NewTable("Serving: tiered KV offload + prefix cache capacity frontier (0.08 GB HBM/instance, 3-turn sessions, 90% SLO target)",
		results.C("Hierarchy"), results.CU("Chunk", "tok"), results.CU("Knee", "req/s"),
		results.CU("SLO@knee", "%"), results.CU("TTFT p99", "ms"),
		results.CU("Hit rate", "%"), results.CU("Reload stall", "s"),
		results.C("Offloads"), results.C("Preempt"), results.CU("HBM out", "GB"))
	for _, p := range pts {
		r := p.Result.Report
		chunk := results.NA()
		if p.ChunkTokens > 0 {
			chunk = results.Int(p.ChunkTokens)
		}
		hitRate := results.NA()
		if lookups := r.PrefixHits + r.PrefixMisses; lookups > 0 {
			hitRate = results.Float("%.1f%%", 100*float64(r.PrefixHits)/float64(lookups))
		}
		offloaded := results.NA()
		if len(r.KVTierMoves) > 0 {
			offloaded = results.Float("%.2f", r.KVTierMoves[0].BytesOut/units.GB)
		}
		t.Row(results.Str(p.Arm), chunk,
			results.Float("%.2f", p.Result.MaxRate),
			results.Float("%.1f%%", p.Result.Attainment*100),
			results.Float("%.0f", r.TTFT.P99*1e3),
			hitRate,
			results.Float("%.2f", r.ReloadStall),
			results.Int(r.KVOffloads), results.Int(r.Preemptions),
			offloaded)
	}
	return t, nil
}
