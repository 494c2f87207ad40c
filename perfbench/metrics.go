package main

import (
	"fmt"

	"dsv3/internal/obs"
)

// endToEnd lists the metrics a --trace 0 run reports, with their units.
var endToEnd = map[string]string{
	"wall_s":        "s",
	"sim_req_per_s": "1/s",
	"setup_s":       "s",
	"alloc_mb":      "MB",
	"max_rss_mb":    "MB",
	"success_rate":  "ratio",
}

// runnerMetric names the per-layer metric of each figures runner that
// has one: cold first-call seconds, under the module the runner loads.
var runnerMetric = map[string]string{
	"figure5":   "netsim.figure5_s",
	"figure6":   "netsim.figure6_s",
	"figure8":   "netsim.figure8_s",
	"planefail": "netsim.planefail_s",
	"figure7":   "deepep.figure7_s",
	"nodelimit": "moe.nodelimit_s",
	"fp8":       "fp8train.fp8_s",
	"accum":     "quant.accum_s",
	"logfmt":    "logfmt.logfmt_s",
}

// perLayer lists the metrics a --trace 1 run reports, with their units.
// Simulated quantities carry sim_ units; they are outputs of the model
// and must not move under a performance change.
func perLayer() map[string]string {
	m := map[string]string{
		"servesim.run_s":            "s",
		"servesim.decode_steps":     "count",
		"servesim.host_ns_per_step": "ns",
		"servesim.generate_s":       "s",
		"servesim.router_pick_ns":   "ns",
		"servesim.router_picks":     "count",
		"servesim.capacity_probes":  "count",
		"servesim.host_s_per_probe": "s",
		"servesim.preemptions":      "count",
		"servesim.kv_offloads":      "count",
		"servesim.kv_reloads":       "count",
		"servesim.tier_demotions":   "count",
		"servesim.tier_drops":       "count",
		"servesim.prefix_hit_ratio": "ratio",
		"servesim.sim_ttft_p50_s":   "sim_s",
		"servesim.sim_ttft_p99_s":   "sim_s",
		"servesim.sim_tpot_p50_s":   "sim_s",
		"servesim.sim_tpot_p99_s":   "sim_s",
		"servesim.sim_goodput_rps":  "req/sim_s",
		"servesim.sim_mean_batch":   "req",
		"servesim.sim_knee_rps":     "req/sim_s",
		"servesim.sim_makespan_s":   "sim_s",
		"results.emit_s":            "s",
		"obs.compute_prefill":       "count",
		"obs.compute_decode_step":   "count",
		"obs.trace_overhead":        "ratio",
		"obs.recorder_overhead":     "ratio",
		"error_rate":                "ratio",
	}
	for _, name := range runnerMetric {
		m[name] = "s"
	}
	for k := range numMarks {
		m["obs.mark."+obs.Mark(k).String()] = "count"
	}
	for _, ph := range tracedPhases {
		m["obs.sim_phase_s."+ph.String()] = "sim_s"
	}
	return m
}

// set stores a per-layer value under its listed unit.
func set(m map[string]metric, name string, v float64) {
	mm, ok := m[name]
	if !ok {
		panic("perfbench: metric " + name + " is not in perLayer")
	}
	mm.Value = v
	m[name] = mm
}

// printSamples prints every sample behind a median, so each reported
// value comes with its sample count.
func printSamples(samples map[string][]float64) {
	fmt.Println(mustJSON(map[string]any{"samples": samples}))
}

// zeroLayerMetrics returns every per-layer metric at 0. A workload
// overwrites the layers it calls; a layer it never calls reads 0.
func zeroLayerMetrics() map[string]metric {
	m := map[string]metric{}
	for name, unit := range perLayer() {
		m[name] = metric{0, unit}
	}
	return m
}
