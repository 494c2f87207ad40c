package experiments

import (
	"dsv3/internal/obs"
	"dsv3/internal/results"
	"dsv3/internal/servesim"
	"dsv3/internal/units"
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

// TraceStudyInterval is the metrics sampling cadence of the serve-trace
// experiment: coarse enough that the sampled table stays readable over
// the ~30-75 s makespan.
const TraceStudyInterval units.Seconds = 2

// TraceStudy runs the reference deployment once with a trace recorder
// and a metrics registry attached and returns both plus the run's
// report. Unlike the sweep studies this is a single traced simulation:
// the per-request lifecycle is the output, not a summary statistic.
func TraceStudy(seed int64, quick bool) (*obs.TraceRecorder, *obs.Registry, *servesim.Report, error) {
	cfg := traceStudyConfig(seed)
	w := kvTierWorkload(quick)
	eng := servesim.NewEngine()
	rec := obs.NewTraceRecorder()
	reg := obs.NewRegistry(TraceStudyInterval)
	eng.AttachTracer(rec)
	eng.AttachMetrics(reg)
	rep, err := eng.Run(cfg, w)
	if err != nil {
		return nil, nil, nil, err
	}
	return rec, reg, rep, nil
}

// eventCountResult tabulates a trace's (kind, name) event tallies.
func eventCountResult(rec *obs.TraceRecorder) *results.Table {
	t := results.NewTable("Trace event counts",
		results.C("Kind"), results.C("Event"), results.C("Count"))
	for _, c := range rec.EventCounts() {
		t.Row(results.Str(c.Kind), results.Str(c.Name), results.Int(c.N))
	}
	return t
}

// TraceStudyResult returns the traced run as structured tables: the
// where-did-the-time-go phase totals, the per-request phase breakdown,
// the trace event tallies, and the sampled time-series metrics.
func TraceStudyResult(seed int64, quick bool) ([]*results.Table, error) {
	rec, reg, _, err := TraceStudy(seed, quick)
	if err != nil {
		return nil, err
	}
	return []*results.Table{
		rec.PhaseTotalsTable(),
		rec.PhaseTable(),
		eventCountResult(rec),
		reg.Table(),
	}, nil
}
