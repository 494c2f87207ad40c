// inference_limits: the §2.3.2 analysis end to end — the EP decode
// ceiling on the H800's IB scale-out vs a GB200 NVL72 scale-up fabric,
// a bandwidth sweep in between, and the MTP multiplier (§2.3.3) on top.
package main

import (
	"fmt"

	"dsv3"
)

func main() {
	exp, ok := dsv3.FindExperiment("inference")
	if !ok {
		panic("inference missing from the experiment catalogue")
	}
	out, err := exp.Run(dsv3.RunOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Println(out.Text())

	// Sweep interconnect bandwidth between the two systems.
	cfg := dsv3.V3EPInference()
	fmt.Println("Interconnect bandwidth sweep (dual-micro-batch overlap, compute-free bound):")
	for _, gbps := range []float64{40, 50, 100, 200, 400, 900} {
		a, err := cfg.Analyze(gbps * 1e9)
		if err != nil {
			panic(err)
		}
		fmt.Printf("  %4.0f GB/s -> TPOT %7.3f ms, %7.0f TPS\n", gbps, a.TPOT*1e3, a.TPS)
	}
	fmt.Println()

	// MTP stacks on top of whatever the network allows (§2.3.3).
	mtpCfg := dsv3.MTPV3()
	sim, err := dsv3.SimulateMTP(mtpCfg, 100000, dsv3.NewSeededRand(1))
	if err != nil {
		panic(err)
	}
	base, _ := cfg.Analyze(50e9)
	fmt.Printf("MTP at %.0f%% acceptance: %.2fx -> IB ceiling becomes %.0f TPS\n",
		mtpCfg.Acceptance*100, sim.Speedup, base.TPS*sim.Speedup)
}
