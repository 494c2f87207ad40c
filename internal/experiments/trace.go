package experiments

import (
	"dsv3/internal/obs"
	"dsv3/internal/results"
	"dsv3/internal/servesim"
)

// traceStudyConfig is the observability reference deployment: the
// tiered-KV fleet from the serve-kvtier study (HBM starved enough to
// offload, DRAM+flash below, prefix cache on) plus the serve-failure
// incident (decode instance 1 crashes at t=6 s, repaired at t=14 s)
// and three retries per orphaned request. One traced run therefore
// exercises every span kind the tracer knows: queue, prefill, transfer,
// reload, decode, backoff, offload/preemption marks, crash/recover
// incidents and prefix hits.
func traceStudyConfig(seed int64) servesim.Config {
	cfg := servesim.V3ServeConfig()
	cfg.Seed = seed
	kvTierBase(&cfg)
	cfg.KV.ChunkTokens = 256
	cfg.KV.Tiers = kvTierHierarchy()
	cfg.KV.PrefixCache = true
	cfg.Resilience.Faults = failurePlan()
	cfg.Resilience.MaxRetries = 3
	return cfg
}

// traceStudy runs the reference deployment once with a trace recorder
// and a metrics registry attached, sampling every 2 s (coarse enough
// that the sampled table stays readable over the ~30-75 s makespan).
// Unlike the sweep studies this is a single traced simulation: the
// per-request lifecycle is the output, not a summary statistic. Its
// tables are the where-did-the-time-go phase totals, the per-request
// phase breakdown, the trace event tallies, and the sampled metrics.
func traceStudy(seed int64, quick bool) ([]*results.Table, error) {
	eng := servesim.NewEngine()
	rec := obs.NewTraceRecorder()
	reg := obs.NewRegistry(2)
	eng.AttachTracer(rec)
	eng.AttachMetrics(reg)
	if _, err := eng.Run(traceStudyConfig(seed), kvTierWorkload(quick)); err != nil {
		return nil, err
	}
	counts := results.NewTable("Trace event counts",
		results.C("Kind"), results.C("Event"), results.C("Count"))
	for _, c := range rec.EventCounts() {
		counts.Row(results.Str(c.Kind), results.Str(c.Name), results.Int(c.N))
	}
	return []*results.Table{rec.PhaseTotalsTable(), rec.PhaseTable(), counts, reg.Table()}, nil
}
