// serving: the request-level view of the paper's inference analyses.
// Where examples/inference_limits derives the steady-state §2.3.2
// decode ceiling, this walkthrough puts the same models under Poisson
// traffic with the discrete-event serving simulator: continuous
// batching, a paged MLA-sized KV cache, disaggregated prefill/decode,
// and MTP speculation — and reads off TTFT/TPOT percentiles, goodput
// and KV occupancy.
package main

import (
	"fmt"
	"log"

	"dsv3"
)

func main() {
	// A small reference deployment: 2 prefill + 4 decode instances of
	// the DeepSeek-V3 latency model (H800 roofline, 400G IB EP traffic).
	cfg := dsv3.V3ServeConfig()
	workload := dsv3.ServeWorkload{
		Arrival:  dsv3.ArrivalPoisson,
		Requests: 300,
		Prompt:   dsv3.LogNormalLength(1024, 0.5),
		Output:   dsv3.LogNormalLength(512, 0.5),
	}

	// Sweep the arrival rate toward saturation. Each point runs its own
	// traffic, seeded DeriveSeed(cfg.Seed, i), so rerunning this program
	// reproduces every number exactly.
	fmt.Println("Poisson load sweep (2 prefill + 4 decode instances):")
	for i, rate := range []float64{2, 4, 6, 8} {
		pc, pw := cfg, workload
		pc.Seed = dsv3.DeriveSeed(cfg.Seed, i)
		pw.RatePerSec = rate
		r, err := dsv3.RunServe(pc, pw)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %4.0f req/s  TTFT p99 %6.0fms  TPOT p99 %5.2fms  goodput %5.2f req/s  SLO %5.1f%%\n",
			rate, r.TTFT.P99*1e3, r.TPOT.P99*1e3, r.GoodputRPS, r.SLOAttainment*100)
	}
	fmt.Println()

	// Why the paper deploys prefill and decode disaggregated: colocated
	// continuous batching must either stall decodes on every prefill
	// (TPOT interference) or defer prefills (TTFT starvation).
	colocated := cfg
	colocated.Fleet.Colocated = true
	colocated.Fleet.PrefillInstances, colocated.Fleet.DecodeInstances = 2, 4
	workload.RatePerSec = 8
	col, err := dsv3.RunServe(colocated, workload)
	if err != nil {
		log.Fatal(err)
	}
	dis, err := dsv3.RunServe(cfg, workload)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("At 8 req/s, colocated 6x:    TTFT p99 %6.0fms  TPOT p99 %5.2fms\n",
		col.TTFT.P99*1e3, col.TPOT.P99*1e3)
	fmt.Printf("At 8 req/s, disaggregated:   TTFT p99 %6.0fms  TPOT p99 %5.2fms\n\n",
		dis.TTFT.P99*1e3, dis.TPOT.P99*1e3)

	// MTP speculation (§2.3.3) at the serving level: accepted drafts
	// multiply tokens per step and cut TPOT.
	spec := dsv3.MTPV3()
	mtpCfg := cfg
	mtpCfg.MTP = &spec
	on, err := dsv3.RunServe(mtpCfg, workload)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MTP at 85%% acceptance: %.3f tokens/step (analytic %.3f), TPOT p50 %.2fms -> %.2fms\n",
		on.TokensPerStep, spec.ExpectedTokensPerStep(), dis.TPOT.P50*1e3, on.TPOT.P50*1e3)

	// KV occupancy over time, from the sampled timeline.
	peak := 0.0
	for _, s := range on.Timeline {
		if s.KVOccupancy > peak {
			peak = s.KVOccupancy
		}
	}
	fmt.Printf("KV pages: peak occupancy %.1f%% (allocator high-water %.1f%%), %d preemptions\n",
		peak*100, on.PeakKVOccupancy*100, on.Preemptions)
}
