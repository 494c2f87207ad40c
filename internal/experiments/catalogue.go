package experiments

import (
	"fmt"
	"sort"
	"strings"

	"dsv3/internal/results"
	"dsv3/internal/units"
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
	many := func(name, desc string, seed int64, f func(o Options, seed int64) ([]*results.Table, error)) Runner {
		return Runner{Name: name, Desc: desc, Seed: seed, Run: func(o Options) (*results.Result, error) {
			tables, err := f(o, seed)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			r := results.New(name, desc, tables...).WithSeed(seed)
			r.Meta.Quick = o.Quick
			return r, nil
		}}
	}
	one := func(name, desc string, seed int64, f func(Options) (*results.Table, error)) Runner {
		return many(name, desc, seed, func(o Options, _ int64) ([]*results.Table, error) {
			t, err := f(o)
			if err != nil {
				return nil, err
			}
			return []*results.Table{t}, nil
		})
	}
	seeded := func(name, desc string, seed int64, f func(seed int64) (*results.Table, error)) Runner {
		return one(name, desc, seed, func(Options) (*results.Table, error) { return f(seed) })
	}
	serve := func(name, desc string, seed int64, study func(quick bool) serveStudy) Runner {
		return one(name, desc, seed, func(o Options) (*results.Table, error) { return study(o.Quick).run(seed) })
	}
	return []Runner{
		one("table1", "KV cache per token (MLA vs GQA)", 0,
			func(Options) (*results.Table, error) { return table1(), nil }),
		one("table2", "training GFLOPs per token (MoE vs dense)", 0,
			func(Options) (*results.Table, error) { return table2(), nil }),
		one("table3", "network topology cost comparison", 0,
			func(Options) (*results.Table, error) { return table3() }),
		one("table4", "training metrics MPFT vs MRFT", 0,
			func(Options) (*results.Table, error) { return table4() }),
		one("table5", "link-layer 64B latency", 0,
			func(Options) (*results.Table, error) { return table5(), nil }),
		one("figure5", "NCCL all-to-all bandwidth MPFT vs MRFT", 0,
			func(o Options) (*results.Table, error) {
				if o.Quick {
					return figure5([]int{32}, []units.Bytes{128 * units.MiB, 512 * units.MiB})
				}
				// A representative subset of the paper's 128 MiB - 16 GiB x-axis.
				return figure5([]int{32, 64, 128},
					[]units.Bytes{128 * units.MiB, 512 * units.MiB, 2 * units.GiB, 8 * units.GiB, 16 * units.GiB})
			}),
		one("figure6", "all-to-all latency parity on 16 GPUs", 0,
			func(Options) (*results.Table, error) {
				// Spans the paper's 64 B - 16 GiB log axis.
				return figure6([]units.Bytes{64, 4 * units.KiB, 256 * units.KiB, 16 * units.MiB, 1 * units.GiB, 16 * units.GiB})
			}),
		seeded("figure7", "DeepEP dispatch/combine bandwidth", 7, figure7),
		one("figure8", "RoCE routing policies (ECMP/AR/static)", 0,
			func(Options) (*results.Table, error) { return figure8() }),
		one("inference", "§2.3.2 EP inference speed limits", 0,
			func(Options) (*results.Table, error) { return inferenceLimits() }),
		many("mtp", "§2.3.3 MTP speculative decoding speedup", 7,
			func(_ Options, seed int64) ([]*results.Table, error) { return mtpSpeedup(seed) }),
		one("local", "§2.2.2 local deployment rooflines", 0,
			func(Options) (*results.Table, error) { return localDeployment(), nil }),
		one("fp8", "§2.4 FP8 vs BF16 toy-training accuracy", 0,
			func(Options) (*results.Table, error) { return fp8Accuracy() }),
		seeded("accum", "§3.1.1 accumulation precision ablation", 13, accumulationAblation),
		seeded("logfmt", "§3.2 LogFMT vs FP8/BF16 accuracy", 17, logFMTAccuracy),
		seeded("nodelimit", "§4.3 node-limited routing dedup", 19, nodeLimitedRouting),
		one("planefail", "§5.1.1 multi-plane failure robustness", 0,
			func(Options) (*results.Table, error) { return planeFailure([]int{0, 1, 2, 4}) }),
		one("overlap", "§2.3.1 dual micro-batch overlap ablation", 0,
			func(Options) (*results.Table, error) { return overlapAblation() }),
		one("contention", "§4.5 PCIe bandwidth contention", 0,
			func(Options) (*results.Table, error) { return bandwidthContention() }),
		seeded("sdc", "§6.1.2 checksum-based SDC detection", 29,
			func(seed int64) (*results.Table, error) { return sdcDetection(seed), nil }),
		serve("serve", "serving simulator: Poisson load sweep", 41, serveLoadStudy),
		serve("serve-disagg", "serving: disaggregation vs colocation ratios", 43, disaggStudy),
		serve("serve-spec", "serving: MTP speculative decoding under load", 47, specStudy),
		serve("serve-router", "serving: router policy shoot-out at fixed load", 53, routerStudy),
		serve("serve-capacity", "serving: SLO capacity knee vs fleet shape and router", 59, capacityStudy),
		serve("serve-failure", "serving: kill-an-instance incident replay per router", 61, failureStudy),
		serve("serve-shed", "serving: admission shedding under diurnal overload", 67, shedStudy),
		serve("serve-kvtier", "serving: tiered KV offload + prefix cache capacity frontier", 71, kvTierStudy),
		many("serve-trace", "serving: deterministic lifecycle trace of the tiered+faulted run", 73,
			func(o Options, seed int64) ([]*results.Table, error) { return traceStudy(seed, o.Quick) }),
		serve("serve-fleet", "serving: 1000-instance fleet under 1M requests", 79, fleetStudy),
		serve("serve-hazard", "serving: plane degradation + SDC per router, detection off vs on", 83, hazardStudy),
		serve("serve-hedge", "serving: hedged requests vs a permanent gray straggler", 89, hedgeStudy),
	}
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
	var names []string
	for _, r := range Catalogue() {
		names = append(names, r.Name)
	}
	sort.Strings(names)
	return names
}
