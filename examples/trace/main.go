// trace: observing the serving simulator from the inside. Aggregate
// percentiles say *that* TTFT degraded; a lifecycle trace says *why* —
// which phase (queue, prefill, KV-transfer, reload, decode, retry
// backoff) ate the time, on which instance, and around which incident.
// This walkthrough attaches the trace recorder and the metrics
// registry to an engine, replays a tiered+faulted run, prints the
// per-request phase breakdown and the event census, and writes the
// Chrome trace_event JSON (open it at https://ui.perfetto.dev) plus
// the sampled time-series CSV.
//
// Observability is strictly additive: the engine drives nil-checked
// hooks, so a run with a recorder attached produces byte-identical
// reports — and identical trace bytes for any worker count.
package main

import (
	"fmt"
	"log"
	"os"

	"dsv3"
)

func main() {
	// A deliberately stressed configuration: HBM small enough to force
	// KV offload to a DRAM spill tier, multi-turn sessions re-hitting
	// their cached prefixes, and a decode crash at t=6s with retries —
	// every phase and incident kind shows up in one trace.
	cfg := dsv3.V3ServeConfig()
	cfg.Seed = 7
	cfg.KV.HBM.CapacityBytes = 0.08e9
	cfg.KV.Tiers = []dsv3.ServeKVTierConfig{
		{Name: "dram", CapacityBytes: 8e9, ReadBW: 24e9, WriteBW: 16e9, ChunkLatency: 0.0001},
	}
	cfg.KV.PrefixCache = true
	cfg.Resilience.Faults = &dsv3.ServeFaultPlan{
		Events: []dsv3.ServeFaultEvent{
			{At: 6, Kind: dsv3.FaultCrash, Instance: 1},
			{At: 14, Kind: dsv3.FaultRecover, Instance: 1},
		},
	}
	cfg.Resilience.MaxRetries = 3
	// Narrow uniform lengths keep the worst-case session close to the
	// mean, so the deliberately tight HBM pool admits requests but
	// stays under KV pressure — the regime the spill tier exists for.
	workload := dsv3.ServeWorkload{
		Arrival:    dsv3.ArrivalPoisson,
		RatePerSec: 4,
		Requests:   150,
		Prompt:     dsv3.ServeLengthDist{Kind: dsv3.DistUniform, Mean: 256, Min: 192, Max: 320},
		Output:     dsv3.ServeLengthDist{Kind: dsv3.DistUniform, Mean: 256, Min: 192, Max: 320},
		Turns:      3,
		ThinkTime:  2,
	}

	// Attach observers before Run. The recorder captures every
	// lifecycle transition; the registry samples engine gauges and
	// counters every half simulated second.
	eng := dsv3.NewServeEngine()
	rec := dsv3.NewServeTraceRecorder()
	reg := dsv3.NewServeMetricsRegistry(0.5)
	eng.AttachTracer(rec)
	eng.AttachMetrics(reg)
	rep, err := eng.Run(cfg, workload)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("run: %d completed, %d failed, %d retried, %d KV offloads, %d reloads\n\n",
		rep.Completed, rep.Failed, rep.Retried, rep.KVOffloads, rep.KVReloads)

	// The event census: one line per distinct trace event. Spans are
	// phase occupations, marks are lifecycle instants, computes are
	// prefill/decode-step kernel slices, incidents are fault
	// transitions.
	fmt.Println("event census:")
	for _, c := range rec.EventCounts() {
		fmt.Printf("  %-9s %-12s %5d\n", c.Kind, c.Name, c.N)
	}

	// Per-request phase breakdowns. The phases tile [arrival, done]
	// exactly: queue + prefill + transfer + reload + decode + backoff
	// sums to E2E for every resolved request — no unattributed time.
	bds := rec.Breakdowns()
	fmt.Println("\nslowest requests by end-to-end latency:")
	slowest := append([]dsv3.ServeReqBreakdown(nil), bds...)
	for i := 0; i < 5 && i < len(slowest); i++ {
		max := i
		for j := i + 1; j < len(slowest); j++ {
			if slowest[j].E2E() > slowest[max].E2E() {
				max = j
			}
		}
		slowest[i], slowest[max] = slowest[max], slowest[i]
		b := slowest[i]
		fmt.Printf("  req %3d: e2e %6.2fs  queue %5.2f  prefill %5.2f  reload %5.2f  decode %5.2f  backoff %5.2f  (%s, %d retries)\n",
			b.ID, b.E2E(), b.Phases[dsv3.ServePhaseQueue], b.Phases[dsv3.ServePhasePrefill],
			b.Phases[dsv3.ServePhaseReload], b.Phases[dsv3.ServePhaseDecode],
			b.Phases[dsv3.ServePhaseBackoff], b.Outcome, b.Retries)
	}

	// Export: the trace as Chrome trace_event JSON — drag into
	// https://ui.perfetto.dev to see requests as async spans over the
	// instance timelines — and the metrics as a time,metric,... CSV.
	trace, err := os.Create("trace.json")
	if err != nil {
		log.Fatal(err)
	}
	if err := rec.WriteJSON(trace); err != nil {
		log.Fatal(err)
	}
	if err := trace.Close(); err != nil {
		log.Fatal(err)
	}
	metrics, err := os.Create("metrics.csv")
	if err != nil {
		log.Fatal(err)
	}
	if err := reg.WriteCSV(metrics); err != nil {
		log.Fatal(err)
	}
	if err := metrics.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwrote trace.json (%d samples of %d metrics in metrics.csv)\n",
		reg.Samples(), reg.Metrics())
	fmt.Println("the same run is available as: dsv3bench -run serve-trace")
}
