package experiments

import (
	"fmt"
	"sort"
	"strings"

	"dsv3/internal/results"
)

// Base seeds for the randomized runners. They are part of the
// experiment definition — the golden corpus (testdata/golden) pins the
// outputs they produce.
const (
	SeedFigure7       = 7
	SeedMTP           = 7
	SeedAccum         = 13
	SeedLogFMT        = 17
	SeedNodeLimited   = 19
	SeedSDC           = 29
	SeedServe         = 41
	SeedServeDisagg   = 43
	SeedServeSpec     = 47
	SeedServeRouter   = 53
	SeedServeCapacity = 59
	SeedServeFailure  = 61
	SeedServeShed     = 67
	SeedServeKVTier   = 71
	SeedServeTrace    = 73
	SeedServeFleet    = 79
	SeedServeHazard   = 83
	SeedServeHedge    = 89
)

// Options configure one catalogue runner invocation.
type Options struct {
	// Quick shrinks the heavy sweeps (figure5) for a fast pass.
	Quick bool
}

// Runner is one catalogue entry: a named experiment producing a
// structured Result. Seed is the base RNG seed baked into the
// experiment definition (0 for deterministic runners); it is recorded
// in every Result's metadata and shown by dsv3bench -list.
type Runner struct {
	Name string
	Desc string
	Seed int64
	Run  func(Options) (*results.Result, error)
}

// Catalogue returns every experiment in presentation order — the
// single source of truth shared by cmd/dsv3bench, the golden-corpus
// tests, and the facade.
func Catalogue() []Runner {
	many := func(name, desc string, seed int64, f func(Options) ([]*results.Table, error)) Runner {
		return Runner{Name: name, Desc: desc, Seed: seed, Run: func(o Options) (*results.Result, error) {
			tables, err := f(o)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			r := results.New(name, desc, tables...).WithSeed(seed)
			r.Meta.Quick = o.Quick
			return r, nil
		}}
	}
	one := func(name, desc string, seed int64, f func(Options) (*results.Table, error)) Runner {
		return many(name, desc, seed, func(o Options) ([]*results.Table, error) {
			t, err := f(o)
			if err != nil {
				return nil, err
			}
			return []*results.Table{t}, nil
		})
	}
	serve := func(name, desc string, seed int64, study func(quick bool) serveStudy) Runner {
		return one(name, desc, seed, func(o Options) (*results.Table, error) { return study(o.Quick).run(seed) })
	}
	return []Runner{
		one("table1", "KV cache per token (MLA vs GQA)", 0,
			func(Options) (*results.Table, error) { return Table1Result(), nil }),
		one("table2", "training GFLOPs per token (MoE vs dense)", 0,
			func(Options) (*results.Table, error) { return Table2Result(), nil }),
		one("table3", "network topology cost comparison", 0,
			func(Options) (*results.Table, error) { return Table3Result() }),
		one("table4", "training metrics MPFT vs MRFT", 0,
			func(Options) (*results.Table, error) { return Table4Result() }),
		one("table5", "link-layer 64B latency", 0,
			func(Options) (*results.Table, error) { return Table5Result(), nil }),
		one("figure5", "NCCL all-to-all bandwidth MPFT vs MRFT", 0,
			func(o Options) (*results.Table, error) {
				gpus := []int{32, 64, 128}
				sizes := DefaultFigure5Sizes()
				if o.Quick {
					gpus = []int{32}
					sizes = sizes[:2]
				}
				pts, err := Figure5(gpus, sizes)
				if err != nil {
					return nil, err
				}
				return Figure5Result(pts), nil
			}),
		one("figure6", "all-to-all latency parity on 16 GPUs", 0,
			func(Options) (*results.Table, error) {
				pts, err := Figure6(DefaultFigure6Sizes())
				if err != nil {
					return nil, err
				}
				return Figure6Result(pts), nil
			}),
		one("figure7", "DeepEP dispatch/combine bandwidth", SeedFigure7,
			func(Options) (*results.Table, error) {
				pts, err := Figure7()
				if err != nil {
					return nil, err
				}
				return Figure7Result(pts), nil
			}),
		one("figure8", "RoCE routing policies (ECMP/AR/static)", 0,
			func(Options) (*results.Table, error) {
				pts, err := Figure8()
				if err != nil {
					return nil, err
				}
				return Figure8Result(pts), nil
			}),
		one("inference", "§2.3.2 EP inference speed limits", 0,
			func(Options) (*results.Table, error) { return InferenceLimitsResult() }),
		many("mtp", "§2.3.3 MTP speculative decoding speedup", SeedMTP,
			func(Options) ([]*results.Table, error) { return MTPResultTables(SeedMTP) }),
		one("local", "§2.2.2 local deployment rooflines", 0,
			func(Options) (*results.Table, error) { return LocalDeploymentResult(), nil }),
		one("fp8", "§2.4 FP8 vs BF16 toy-training accuracy", 0,
			func(Options) (*results.Table, error) { return FP8AccuracyResultTable() }),
		one("accum", "§3.1.1 accumulation precision ablation", SeedAccum,
			func(Options) (*results.Table, error) { return AccumulationAblationResult(SeedAccum) }),
		one("logfmt", "§3.2 LogFMT vs FP8/BF16 accuracy", SeedLogFMT,
			func(Options) (*results.Table, error) { return LogFMTAccuracyResult(SeedLogFMT) }),
		one("nodelimit", "§4.3 node-limited routing dedup", SeedNodeLimited,
			func(Options) (*results.Table, error) { return NodeLimitedRoutingResult(SeedNodeLimited) }),
		one("planefail", "§5.1.1 multi-plane failure robustness", 0,
			func(Options) (*results.Table, error) {
				rows, err := PlaneFailure([]int{0, 1, 2, 4})
				if err != nil {
					return nil, err
				}
				return PlaneFailureResult(rows), nil
			}),
		one("overlap", "§2.3.1 dual micro-batch overlap ablation", 0,
			func(Options) (*results.Table, error) { return OverlapAblationResult() }),
		one("contention", "§4.5 PCIe bandwidth contention", 0,
			func(Options) (*results.Table, error) { return BandwidthContentionResult() }),
		one("sdc", "§6.1.2 checksum-based SDC detection", SeedSDC,
			func(Options) (*results.Table, error) { return SDCDetectionResult(SeedSDC) }),
		serve("serve", "serving simulator: Poisson load sweep", SeedServe, serveLoadStudy),
		serve("serve-disagg", "serving: disaggregation vs colocation ratios", SeedServeDisagg, disaggStudy),
		serve("serve-spec", "serving: MTP speculative decoding under load", SeedServeSpec, specStudy),
		serve("serve-router", "serving: router policy shoot-out at fixed load", SeedServeRouter, routerStudy),
		serve("serve-capacity", "serving: SLO capacity knee vs fleet shape and router", SeedServeCapacity, capacityStudy),
		serve("serve-failure", "serving: kill-an-instance incident replay per router", SeedServeFailure, failureStudy),
		serve("serve-shed", "serving: admission shedding under diurnal overload", SeedServeShed, shedStudy),
		serve("serve-kvtier", "serving: tiered KV offload + prefix cache capacity frontier", SeedServeKVTier, kvTierStudy),
		many("serve-trace", "serving: deterministic lifecycle trace of the tiered+faulted run", SeedServeTrace,
			func(o Options) ([]*results.Table, error) { return TraceStudyResult(SeedServeTrace, o.Quick) }),
		serve("serve-fleet", "serving: 1000-instance fleet under 1M requests", SeedServeFleet, fleetStudy),
		serve("serve-hazard", "serving: plane degradation + SDC per router, detection off vs on", SeedServeHazard, hazardStudy),
		serve("serve-hedge", "serving: hedged requests vs a permanent gray straggler", SeedServeHedge, hedgeStudy),
	}
}

// Names returns the catalogue's experiment names in order.
func Names() []string {
	cat := Catalogue()
	names := make([]string, len(cat))
	for i, r := range cat {
		names[i] = r.Name
	}
	return names
}

// Find resolves a case-insensitive experiment name.
func Find(name string) (Runner, bool) {
	for _, r := range Catalogue() {
		if strings.EqualFold(r.Name, name) {
			return r, true
		}
	}
	return Runner{}, false
}

// SuggestNames returns the catalogue names sorted alphabetically — the
// list the CLI prints when -run names an unknown experiment.
func SuggestNames() []string {
	names := Names()
	sort.Strings(names)
	return names
}
