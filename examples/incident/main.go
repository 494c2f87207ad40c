// incident: replaying an instance failure through the serving
// simulator. Availability under component failure is a first-class
// datacenter-inference constraint — the paper survives plane failures
// in the network and SDC on the accelerator, and the serving layer has
// to survive an instance dying mid-traffic. This walkthrough kills a
// decode instance under load, measures the blast radius (KV tokens
// lost, orphaned requests) and the recovery time once it comes back,
// shows how the retry budget turns failed requests into retried ones,
// and bounds tail latency under overload with admission shedding.
package main

import (
	"fmt"
	"log"

	"dsv3"
)

func main() {
	// The same KV-constrained reference fleet as examples/capacity,
	// lightly loaded so the incident — not saturation — dominates.
	cfg := dsv3.V3ServeConfig()
	cfg.KV.HBM.CapacityBytes = 0.4e9
	cfg.Seed = 1
	workload := dsv3.ServeWorkload{
		Arrival:    dsv3.ArrivalPoisson,
		RatePerSec: 5,
		Requests:   200,
		Prompt:     dsv3.LogNormalLength(1024, 0.5),
		Output:     dsv3.LogNormalLength(512, 0.5),
	}

	// The incident: decode instance 1 crashes at t=6s — its in-flight
	// batch is orphaned and its KV pool wiped — and is repaired at
	// t=14s. The schedule is part of the config, so the replay is
	// deterministic: same seed, same incident, same report.
	cfg.Resilience.Faults = &dsv3.ServeFaultPlan{
		Events: []dsv3.ServeFaultEvent{
			{At: 6, Kind: dsv3.FaultCrash, Instance: 1},
			{At: 14, Kind: dsv3.FaultRecover, Instance: 1},
		},
	}

	// Without retries, every orphaned request is a failed request.
	rep, err := dsv3.RunServe(cfg, workload)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("no retries:")
	show(rep)

	// A budget of 3 retries (0.25s exponential backoff, capped at 4s)
	// re-queues orphans through dispatch: failures become retries, at
	// the cost of retry amplification — extra prefill traffic on the
	// survivors.
	cfg.Resilience.MaxRetries = 3
	rep, err = dsv3.RunServe(cfg, workload)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nwith retries (3x, 0.25s backoff):")
	show(rep)

	// Routing policy changes the blast radius: each router concentrates
	// a different share of work on the doomed instance, so KV lost,
	// amplification and recovery time all move with the policy.
	fmt.Println("\nblast radius by router:")
	for _, policy := range dsv3.ServeRouterPolicies() {
		c := cfg
		c.Fleet.Router = policy
		r, err := dsv3.RunServe(c, workload)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-14s  affected %2d  kv lost %5d tok  amp %.3f  recovery %.2fs\n",
			policy, r.AffectedRequests, r.KVTokensLost,
			r.RetryAmplification, r.Incidents[0].Recovery)
	}

	// Graceful degradation: at 2.5x the load the fleet is past its
	// knee. Admit-all lets queueing collapse everyone's TTFT; shedding
	// at a queue depth of 24 rejects a known fraction and keeps the
	// admitted requests' latency bounded.
	over := workload
	over.RatePerSec = 12.5
	c := cfg
	c.Resilience.Faults, c.Resilience.MaxRetries = nil, 0
	base, err := dsv3.RunServe(c, over)
	if err != nil {
		log.Fatal(err)
	}
	c.Resilience.Admission = dsv3.ServeAdmissionPolicy{MaxQueueDepth: 24}
	shed, err := dsv3.RunServe(c, over)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\noverload at %.1f req/s:\n", over.RatePerSec)
	fmt.Printf("  admit-all: shed %3d  TTFT p99 %6.0f ms  SLO %5.1f%%\n",
		base.Shed, base.TTFT.P99*1e3, base.SLOAttainment*100)
	fmt.Printf("  queue<=24: shed %3d  TTFT p99 %6.0f ms  SLO %5.1f%%\n",
		shed.Shed, shed.TTFT.P99*1e3, shed.SLOAttainment*100)
}

// show prints the failure-mode block of one report.
func show(r *dsv3.ServeReport) {
	fmt.Printf("  offered %d  completed %d  failed %d  affected %d  retried %d (amp %.3f)\n",
		r.Requests, r.Completed, r.Failed, r.AffectedRequests, r.Retried, r.RetryAmplification)
	for _, in := range r.Incidents {
		fmt.Printf("  incident at %.1fs on d%d: %d orphaned, %d KV tokens lost, recovered in %.2fs\n",
			in.At, in.Instance, in.Orphaned, in.KVTokensLost, in.Recovery)
	}
	fmt.Printf("  SLO healthy epoch %.1f%%, faulted epoch %.1f%%\n",
		r.SLOHealthy*100, r.SLOFaulted*100)
}
